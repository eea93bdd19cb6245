package predictors

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/compressor/sz3"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// khanSampleKey is the derived-slot key of khan_surrogate's residual
// sample of a buffer: the runs it holds are a function of the element
// count and the sample fraction.
type khanSampleKey struct{ fraction float64 }

// khanBuildAsk is the fresh bound at which a buffer's sample is built:
// table2 asks each buffer at two bounds, so one- and two-bound traffic
// never pays for the sort.
const khanBuildAsk = 3

// khanAsks is what the slot holds under khanSampleKey until the sample is
// built: how many fresh bounds the buffer was asked at, an ask at the
// bound asked last not counting. Its counters are the one mutable derived
// value, updated atomically; a lost update only delays the build.
type khanAsks struct {
	fresh atomic.Int32
	last  atomic.Uint64 // math.Float64bits of the bound asked last
}

// ask records an ask at abs and reports whether it is the buffer's
// khanBuildAsk-th fresh bound.
func (a *khanAsks) ask(abs float64) bool {
	b := math.Float64bits(abs)
	return a.last.Swap(b) != b && a.fresh.Add(1) == khanBuildAsk
}

// khanSample is a buffer's sampled 1-D Lorenzo residuals — what
// estimateSZ quantizes, each run starting from zero — sorted ascending,
// with the NaN residuals counted apart. The residuals do not depend on
// the bound; only their codes do.
type khanSample struct {
	res  []float64
	nans uint64
}

// DerivedBytes implements pressio.DerivedSizer.
func (s *khanSample) DerivedBytes() int { return 8*cap(s.res) + 32 }

// khanAnswers counts the SZ estimates answered, and those answered from
// a sorted sample (KhanSampleAnswers).
var khanAnswers struct{ fromSample, all atomic.Uint64 }

// KhanSampleAnswers reports how many khan_surrogate SZ estimates this
// process has answered, and how many of them a buffer's sorted residual
// sample answered.
func KhanSampleAnswers() (fromSample, all uint64) {
	return khanAnswers.fromSample.Load(), khanAnswers.all.Load()
}

// sample returns in's sorted residual sample of runs, or nil where the
// plain estimate answers: a sample that would not ride on the buffer
// (stats.Rides), or a buffer asked at fewer than khanBuildAsk fresh
// bounds. The ask that reaches khanBuildAsk builds the sample and stores
// it in the buffer's slot, where the dataset tier keeps it across the
// cell's eviction.
func (m *KhanSurrogate) sample(in *pressio.Data, runs [][2]int, sc *khanScratch) *khanSample {
	total := 0
	for _, run := range runs {
		total += run[1] - run[0]
	}
	if total == 0 || !stats.Rides(in, 8*total) {
		return nil
	}
	key := khanSampleKey{m.fraction()}
	switch v := in.Derived(key).(type) {
	case *khanSample:
		return v
	case *khanAsks:
		if !v.ask(m.abs()) {
			return nil
		}
		s := newKhanSample(in, runs, total, sc)
		in.StoreDerived(key, s)
		return s
	}
	a := &khanAsks{}
	a.ask(m.abs())
	in.StoreDerived(key, a)
	return nil
}

// newKhanSample reads runs of in, total elements in all, and sorts their
// residuals.
func newKhanSample(in *pressio.Data, runs [][2]int, total int, sc *khanScratch) *khanSample {
	s := &khanSample{res: make([]float64, 0, total)}
	for _, run := range runs {
		prev := 0.0
		for _, v := range sc.read(in, run) {
			// v - 0 is v, bit for bit: a run's first residual is its
			// first value, as CodesLorenzo codes it
			if r := v - prev; r == r {
				s.res = append(s.res, r)
			} else {
				s.nans++
			}
			prev = v
		}
	}
	slices.Sort(s.res)
	return s
}

// khanBlock is how many residuals count reads at a time: a block whose
// ends share a code is one run, whose end is searched for; any other
// block is coded residual by residual and its runs found in the codes,
// in loops whose branches predict (a search's probes do not).
const khanBlock = 32

// count sets cm's counts to how many of the sample's residuals take each
// code at cm's bound, in code order — codeModel.tally's counts of the
// same codes — and returns the outliers, NaNs included. Codes are
// monotone in the residual, so each code's residuals are contiguous and
// the outliers sit at both ends: those below the codes and those above
// are bisected for apart (both are sz3.OutlierCode, and a search for
// where one run of OutlierCode ends could cross the codes to the other).
// Between them the residuals are read in blocks (khanBlock); the run a
// block ends in is counted once the next block shows where it ends.
func (s *khanSample) count(cm *codeModel) uint64 {
	rc, res := cm.q.ResidualCoder(), s.res
	outlier := func(i int) bool { return rc.Code(res[i]) == sz3.OutlierCode }
	a := sort.Search(len(res), func(i int) bool { return !outlier(i) || res[i] >= 0 })
	b := a + sort.Search(len(res)-a, func(i int) bool { return outlier(a + i) })
	counts := cm.counts[:0]
	var codes [khanBlock]int32
	var offsets [khanBlock]int
	code, run := int32(0), 0 // the open run: its code and length so far
	for i := a; i < b; {
		e := min(i+khanBlock, b)
		first, last := rc.Code(res[i]), rc.Code(res[e-1])
		if first == last {
			j := runEnd(rc, res[:b], e, first)
			if run > 0 && code != first {
				counts = append(counts, uint64(run))
				run = 0
			}
			code, run = first, run+j-i
			i = j
			continue
		}
		// at least two runs: the first closes the open one, the last
		// is open
		n := e - i
		ends := runEnds(rc, res[i:e], &codes, &offsets)
		if run > 0 && code != first {
			counts = append(counts, uint64(run))
			run = 0
		}
		counts = append(counts, uint64(run+ends[0]))
		for k := 1; k < len(ends); k++ {
			counts = append(counts, uint64(ends[k]-ends[k-1]))
		}
		code, run = last, n-ends[len(ends)-1]
		i = e
	}
	if run > 0 {
		counts = append(counts, uint64(run))
	}
	cm.counts = counts
	return s.nans + uint64(a) + uint64(len(res)-b)
}

// runEnds codes res (at most khanBlock residuals, whose first and last
// codes differ) into codes and lists in ends the offset at which each of
// its runs but the last ends. Every offset is written, and kept where
// the code there is new.
func runEnds(rc sz3.ResidualCoder, res []float64, codes *[khanBlock]int32, ends *[khanBlock]int) []int {
	block := codes[:len(res)]
	for k, r := range res {
		block[k] = rc.Code(r)
	}
	m := 0
	for k := 1; k < len(block); k++ {
		ends[m] = k
		if block[k] != block[k-1] {
			m++
		}
	}
	return ends[:m]
}

// runEnd is the first index at or after lo whose code is not c, where
// res[lo-1]'s is and the codes of res ascend: strides doubling from lo-1
// bracket it, a bisection finds it.
func runEnd(rc sz3.ResidualCoder, res []float64, lo int, c int32) int {
	known, hi := lo-1, len(res)
	for stride := 1; known+stride < len(res); stride *= 2 {
		if rc.Code(res[known+stride]) != c {
			hi = known + stride
			break
		}
		known += stride
	}
	return known + 1 + sort.Search(hi-known-1, func(i int) bool { return rc.Code(res[known+1+i]) != c })
}
