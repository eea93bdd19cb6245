package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// compareMain implements `compare A.json B.json`: one row per workload ×
// end-to-end metric with both medians, the ratio and its base, the bound,
// and a verdict. Each side may be several report files joined by commas
// (ten runs on ten seeds, say); the spread that decides "unresolved" is
// the distance between the quartiles of a side's runs over their median.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadSide(args[1]); err == nil {
			fmt.Print(compareTable(a, b))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 1
}

// loadSide pools the untraced runs of the named report files:
// workload → metric → one value per run.
func loadSide(list string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, run := range rep.Runs {
			if run.Traced {
				continue
			}
			if side[run.Workload] == nil {
				side[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.Result.Metrics {
				side[run.Workload][name] = append(side[run.Workload][name], m.Value)
			}
		}
	}
	return side, nil
}

// spread is the interquartile distance of xs over their median; 0 for
// fewer than two runs, which cannot show one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// verdict applies the rule of the choosing-metrics guide: worse or better
// only when the medians differ by more than the bound; unresolved when a
// side's own runs spread wider than the bound (or a side has a single run),
// unless every run of B lies on one side of every run of A.
func verdict(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma // > 0: B reads higher
	if def.better == "higher" {
		change = -change
	}
	// change > 0 now means B is worse
	lowA, highA, lowB, highB := quantile(a, 0), quantile(a, 1), quantile(b, 0), quantile(b, 1)
	allBelow, allAbove := highB < lowA, lowB > highA // every run of B below / above every run of A
	allBetter, allWorse := allBelow, allAbove
	if def.better == "higher" {
		allBetter, allWorse = allAbove, allBelow
	}
	noisy := spread(a) > def.bound || spread(b) > def.bound
	if len(a) < 2 || len(b) < 2 {
		// one run shows no spread: a difference beyond the bound is a reason
		// to run more seeds, not a result
		if change > def.bound || change < -def.bound {
			return "unresolved"
		}
		return "same"
	}
	switch {
	case change > def.bound && (!noisy || allWorse):
		return "worse"
	case change < -def.bound && (!noisy || allBetter):
		return "better"
	case noisy:
		return "unresolved"
	}
	return "same"
}

func compareTable(a, b map[string]map[string][]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-11s %5s %13s %13s %22s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "A (median)", "B (median)", "B/A (base: A)", "bound", "spreadA", "spreadB", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			xa, xb := a[w.name][def.name], b[w.name][def.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(&sb, "%-14s %-11s %5s %13.6g %13.6g %9.4f of %-9.6g %6.0f%% %7.1f%% %7.1f%%  %s (%s is better; %d vs %d runs)\n",
				w.name, def.name, def.unit, ma, mb, mb/ma, ma, def.bound*100, spread(xa)*100, spread(xb)*100,
				verdict(def, xa, xb), def.better, len(xa), len(xb))
		}
	}
	return sb.String()
}
