// Package gate is the baseline-compare engine behind the kernel
// microbenchmark gate (cmd/benchgate, BENCH_kernels.json): named rows of
// named metrics, compared against a committed baseline under per-metric
// rules.
//
// Every gated metric (ns/op, allocs/op) regresses upward. A Rule declares
// a relative tolerance and an optional absolute slack (allocs/op uses one,
// so an integer count that flips by one between runs never trips the
// relative check).
package gate

import (
	"fmt"
	"sort"
)

// Rule gates one metric across all rows: the current value may not
// exceed baseline·(1+Tolerance)+Slack.
type Rule struct {
	// Metric is the key into each row's measurement map.
	Metric string
	// Tolerance is the relative band, e.g. 0.10 for +10%.
	Tolerance float64
	// Slack is an absolute allowance added on top of the relative band.
	Slack float64
}

// Row is one named set of measurements (one benchmark).
type Row map[string]float64

// Failure describes one gated regression.
type Failure struct {
	Row    string
	Metric string
	// Base and Cur are the compared values; for a missing row or metric
	// both are zero and Reason carries the explanation.
	Base, Cur float64
	Reason    string
}

func (f Failure) String() string {
	if f.Reason != "" {
		return fmt.Sprintf("%s: %s", f.Row, f.Reason)
	}
	return ""
}

// failf builds a value-comparison failure with the standard phrasing.
func failf(row string, r Rule, base, cur float64) Failure {
	delta := 0.0
	if base != 0 {
		delta = 100 * (cur/base - 1)
	}
	return Failure{
		Row: row, Metric: r.Metric, Base: base, Cur: cur,
		Reason: fmt.Sprintf("%s regressed to %.4g vs baseline %.4g (+%.1f%%, limit %.0f%%)",
			r.Metric, cur, base, delta, r.Tolerance*100),
	}
}

// Compare gates every baseline row against the current run under the
// rules. A row present in the baseline but absent from the current run is
// itself a failure: a silently deleted benchmark ungates whatever it
// measured. Rows only in the current run pass — new
// measurements enter the gate when the baseline is next rewritten.
// Failures come back in sorted row order so output is deterministic.
func Compare(base, cur map[string]Row, rules []Rule) []Failure {
	var failures []Failure
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures, Failure{
				Row:    name,
				Reason: "present in baseline but not in current run",
			})
			continue
		}
		for _, r := range rules {
			bv, bok := b[r.Metric]
			cv, cok := c[r.Metric]
			if !bok {
				// the baseline never recorded this metric for this row;
				// nothing to gate against
				continue
			}
			if !cok {
				failures = append(failures, Failure{
					Row: name, Metric: r.Metric,
					Reason: fmt.Sprintf("metric %s present in baseline but not in current run", r.Metric),
				})
				continue
			}
			if cv > bv*(1+r.Tolerance)+r.Slack {
				failures = append(failures, failf(name, r, bv, cv))
			}
		}
	}
	return failures
}
