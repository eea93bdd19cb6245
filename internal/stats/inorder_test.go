package stats

import (
	"math"
	"testing"

	"repro/internal/hurricane"
)

// TestSummaryIsTheInOrderSum: a summary's moments and histogram are those
// of one plain loop over the buffer in index order, bit for bit, whatever
// the machine's core count. Feature bits feed journaled fits, so a summary
// that summed in any other association would differ between two nodes of
// one cluster.
func TestSummaryIsTheInOrderSum(t *testing.T) {
	d, err := hurricane.Field("U", 3, []int{64, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	const bins = 4096
	got := SummaryOf(d, bins, 0)

	xs := d.Float32()
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	for _, f := range xs {
		v := float64(f)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	mean := sum / float64(len(xs))
	var sumSq float64
	hist := make([]uint64, bins)
	scale := float64(bins) / (hi - lo)
	for _, f := range xs {
		v := float64(f)
		dv := v - mean
		sumSq += dv * dv
		hist[min(max(int((v-lo)*scale), 0), bins-1)]++
	}
	std := math.Sqrt(sumSq / float64(len(xs)))

	for _, c := range []struct {
		name      string
		got, want float64
	}{{"Mean", got.Mean, mean}, {"Std", got.Std, std}, {"Min", got.Min, lo}, {"Max", got.Max, hi}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s bits %016x, the in-order loop's %016x", c.name, math.Float64bits(c.got), math.Float64bits(c.want))
		}
	}
	for i := range hist {
		if got.Hist[i] != hist[i] {
			t.Fatalf("Hist[%d] = %d, the in-order loop's %d", i, got.Hist[i], hist[i])
		}
	}
}
