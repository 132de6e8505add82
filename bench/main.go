// Command bench is SemHolo's one motion-to-photon benchmark: it drives
// seeded captures through the whole path — ladder encode, relay or
// shard cascade over emulated links, the multi-tenant decode service,
// the rasteriser — and reports what a user of the system sees
// (end-to-end pass) and where the time went (traced pass), under the
// metric names BENCHMARK.json declares.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload room-e2e -trace 1      one traced pass
//	go run ./bench -compare a.json b.json           apply BENCHMARK.json's bounds
//
// The harness measures from outside: it owns the sender loop and every
// subscriber loop and times its own calls into the program; what
// happens between those calls it reads from the hop records, counters
// and link statistics the program already produces. README.md defines
// the terms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// header is the environment a result came from.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Time       string  `json:"time"`
}

func environment(seed int64, window time.Duration) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown",
		Seed: seed, WindowS: window.Seconds(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// resultFile is what -out writes and -compare reads: the header and
// every pass made, in order.
type resultFile struct {
	Header header        `json:"header"`
	Passes []*passResult `json:"passes"`
}

// contractLine is the last line of standard output of a single-workload
// run: exactly these keys, each metric exactly value and unit.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printPass prints every metric by name with unit and sample count, the
// traced pass's span table, and whatever failed.
func printPass(w io.Writer, res *passResult) {
	pass := "end-to-end"
	decls := endToEndMetrics
	if res.Traced {
		pass, decls = "traced", perLayerMetrics
	}
	fmt.Fprintf(w, "\n== %s · %s pass · seed %d · window %.1f s · attempted %d · failed %d · correct %v\n",
		res.Workload, pass, res.Seed, res.WindowS, res.Attempted, res.Failed, res.Correct)
	if res.Invalid != "" {
		// A run that is not a measurement reports no numbers.
		fmt.Fprintf(w, "  REJECTED: %s\n", res.Invalid)
		return
	}
	for _, d := range decls {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  -- spans of the measured legs (ms; self = span minus its children)\n")
		fmt.Fprintf(w, "  %-26s %6s %10s %10s %10s %8s\n", "span", "n", "p50", "p95", "self p50", "of m2p")
		for _, row := range res.Layers {
			fmt.Fprintf(w, "  %-26s %6d %10.3f %10.3f %10.3f %7.1f%%\n",
				row.Name, row.N, row.P50Ms, row.P95Ms, row.SelfP50, row.ShareM2P*100)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed for captures, motion phases and every emulated link")
		seconds  = flag.Float64("seconds", 24, "measured window per pass, seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, 1: traced pass (default: both, end-to-end first)")
		runs     = flag.Int("runs", 1, "end-to-end passes per workload (5 or more to judge spread)")
		out      = flag.String("out", "", "write the header and every pass to this JSON file")
		history  = flag.String("history", "", "append one JSON line per pass to this file")
		spans    = flag.String("spans", "", "write the traced passes' spans to this file (JSON lines)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		bounds   = flag.String("benchmark", "BENCHMARK.json", "benchmark declaration -compare takes bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
	}

	specs := workloads(runtime.NumCPU())
	if *workload != "" {
		var picked []workloadSpec
		for _, s := range specs {
			if s.Name == *workload {
				picked = append(picked, s)
			}
		}
		if len(picked) == 0 {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		specs = picked
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{
		seed: *seed, window: window,
		warmup: 3 * time.Second, drain: 1500 * time.Millisecond,
		corpusFrames: 300, setups: 3,
	}
	file := resultFile{Header: environment(*seed, window)}
	if err := printJSON(os.Stdout, file.Header); err != nil {
		return err
	}

	single := *workload != "" && *trace >= 0 && *runs == 1
	var last *passResult
	var allSpans [][]span
	bad := 0
	for i := range specs {
		var modes []bool
		if *trace != 1 {
			for k := 0; k < *runs; k++ {
				modes = append(modes, false)
			}
		}
		if *trace != 0 {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			cfg.trace = traced
			res, err := execute(&specs[i], cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", specs[i].Name, err)
			}
			printPass(os.Stdout, res)
			if res.Invalid != "" || !res.Correct {
				bad++
			}
			allSpans = append(allSpans, res.spans...)
			file.Passes = append(file.Passes, res)
			last = res
			if *history != "" {
				if err := appendHistory(*history, file.Header, res); err != nil {
					return err
				}
			}
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			return err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// A single pass ends with the contract's result line.
	if single {
		if last.Invalid != "" {
			return fmt.Errorf("%s: run rejected: %s", last.Workload, last.Invalid)
		}
		line := contractLine{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]contractMetric{}}
		for name, m := range last.Metrics {
			line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		if err := printJSON(os.Stdout, line); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pass(es) failed a correctness or validity check", bad)
	}
	return nil
}

// appendHistory appends one pass, with its environment, as a JSON line.
func appendHistory(path string, h header, res *passResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = printJSON(f, struct {
		Header header      `json:"header"`
		Pass   *passResult `json:"pass"`
	}{h, res})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
