package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDecl is the part of BENCHMARK.json the comparison reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// endToEndValues gathers one metric's value from every valid
// end-to-end pass of one workload in a result file.
func endToEndValues(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, p := range f.Passes {
		if p.Workload != workload || p.Traced || p.Invalid != "" {
			continue
		}
		if m, ok := p.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges candidate runs b against baseline runs a for one
// metric: worse when b's median is beyond the bound; unresolved when
// either side's own quartile spread is wider than the bound (unless
// every b beats every a, or the metric is judged on medians alone);
// better when b's median gains more than both spreads; otherwise within
// bound.
func verdict(a, b []float64, higherBetter bool, bound float64, mediansOnly bool) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma // positive = b is worse
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse", worse
	}
	spread := max(quartileSpread(a), quartileSpread(b))
	if spread > bound && !mediansOnly {
		clean := true
		for _, x := range a {
			for _, y := range b {
				if (higherBetter && y <= x) || (!higherBetter && y >= x) {
					clean = false
				}
			}
		}
		if !clean {
			return "unresolved", worse
		}
		return "better", worse
	}
	if -worse > spread && worse < 0 {
		return "better", worse
	}
	return "within bound", worse
}

// compareFiles applies BENCHMARK.json's bounds to two result files and
// prints one verdict per workload × end-to-end metric.
func compareFiles(w io.Writer, declPath, aPath, bPath string) error {
	var decl benchmarkDecl
	var a, b resultFile
	if err := readJSON(declPath, &decl); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d\nb: %s  commit %s  seed %d\n",
		aPath, a.Header.Commit, a.Header.Seed, bPath, b.Header.Commit, b.Header.Seed)
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	bad := 0
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := endToEndValues(&a, wl.Name, m.Name), endToEndValues(&b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s %12s %12s %9s %6.0f%%  missing\n", wl.Name, m.Name, "-", "-", "-", m.Bound*100)
				bad++
				continue
			}
			// Set-up time is held to its medians only, as the driver holds it.
			v, change := verdict(va, vb, m.Better == "higher", m.Bound, m.Name == "setup_s")
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %+8.1f%% %6.0f%%  %s (n=%d/%d)\n",
				wl.Name, m.Name, median(va), median(vb), change*100, m.Bound*100, v, len(va), len(vb))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pair(s) worse, unresolved or missing", bad)
	}
	return nil
}
