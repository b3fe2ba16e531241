package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files — A the base, B the candidate — and returns exit code 1
// when any row regressed or any workload's failed share rose.
//
// A row is "regressed" when B's median is worse than A's by more than the
// metric's bound and the runs resolve it: neither side's runs spread (max −
// min over the median) wider than the bound, or every run of B reads worse
// than every run of A. Otherwise a spread wider than the bound makes the
// row "unresolved" — neither a regression nor "no change" can be claimed —
// unless every run of B reads better than every run of A.
func compareFiles(out io.Writer, benchmarkPath, pathA, pathB string) (int, error) {
	var spec benchmarkFile
	var a, b results
	if err := loadJSON(benchmarkPath, &spec); err != nil {
		return 1, err
	}
	if err := loadJSON(pathA, &a); err != nil {
		return 1, err
	}
	if err := loadJSON(pathB, &b); err != nil {
		return 1, err
	}
	if len(a.Workloads) == 0 {
		return 1, fmt.Errorf("%s: no workloads", pathA)
	}
	byName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(out, "%-13s %-12s %14s %14s %22s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return 1, fmt.Errorf("%s: workload %s missing", pathB, wa.Name)
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			// An end-to-end metric never reads 0: a median that does is a
			// metric the file does not hold, and no ratio can be taken.
			if !(sa.Median > 0 && sb.Median > 0) {
				return 1, fmt.Errorf("%s %s: medians %g and %g, want both above 0", wa.Name, m.Name, sa.Median, sb.Median)
			}
			verdict := verdictOf(sa, sb, m.Better == "lower", m.Bound)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(out, "%-13s %-12s %14.6g %14.6g %9.4fx of %-9.4g %5.0f%%  %s\n",
				wa.Name, m.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), sa.Median, m.Bound*100, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "ok"
		if fb > fa {
			verdict, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-13s %-12s %14.6g %14.6g %22s %5.0f%%  %s\n", wa.Name, "failed_share", fa, fb, "", 0.0, verdict)
	}
	return code, nil
}

// verdictOf classifies one row; see compareFiles.
func verdictOf(a, b summary, lowerIsBetter bool, bound float64) string {
	// Flip higher-is-better metrics so that larger always means worse.
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worse := sign * (b.Median - a.Median) / a.Median
	spread := max(ratio(a.Max-a.Min, a.Median), ratio(b.Max-b.Min, b.Median))
	var allBetter, allWorse bool
	if lowerIsBetter {
		allBetter, allWorse = b.Max < a.Min, b.Min > a.Max
	} else {
		allBetter, allWorse = b.Min > a.Max, b.Max < a.Min
	}
	switch {
	case worse > bound && (spread <= bound || allWorse):
		return "regressed"
	case spread > bound && !allBetter:
		return "unresolved"
	}
	return "ok"
}
