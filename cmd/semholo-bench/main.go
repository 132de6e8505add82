// Command semholo-bench regenerates the paper's tables, figures and
// ablations. Each experiment prints the series the paper reports;
// EXPERIMENTS.md records paper-vs-measured for all of them.
//
// Usage:
//
//	semholo-bench -exp table2
//	semholo-bench -exp fig4 -res 128,256,512,1024
//	semholo-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"log"

	"semholo/internal/experiments"
	"semholo/internal/metrics"
	"semholo/internal/netsim"
	"semholo/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table2|fig2|fig3|fig4|foveated|keypoints|finetune|slimmable|textdelta|codecs|qoe|all")
		resArg    = flag.String("res", "", "comma-separated reconstruction resolutions (fig2/fig4)")
		frames    = flag.Int("frames", 5, "frames per measurement")
		full      = flag.Bool("full", false, "include the paper's full resolution sweep up to 1024 (slow)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		par       = flag.Int("par", 0, "worker goroutines per kernel (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
		cache     = flag.Bool("cache", false, "enable the pose-keyed mesh LRU in pipeline decoders (output identical, faster)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and pprof on this address while experiments run")
	)
	flag.Parse()

	if *debugAddr != "" {
		// The default registry plus pprof: long experiment runs become
		// profile-able and scrape-able without a rebuild.
		srv, err := obs.Serve(*debugAddr, obs.Default, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/metrics\n", srv.Addr())
	}

	env := experiments.NewEnv(experiments.EnvOptions{Seed: *seed, Parallelism: *par, Cache: *cache})
	// Uniform counter hookup: the env's shared reconstruction telemetry is
	// scrape-able whenever the debug server is up.
	metrics.RegisterAll(obs.Default, &env.Recon)
	fmt.Printf("parallelism: %d workers\n", env.Parallelism)

	resolutions := parseResolutions(*resArg, *full)

	run := func(name string, fn func()) {
		fmt.Printf("\n=== %s ===\n", name)
		fn()
	}
	experimentsByName := map[string]func(){
		"table1":    func() { printTable1(env, *frames) },
		"table2":    func() { printTable2(env, *frames) },
		"fig2":      func() { printFig2(env, resolutions) },
		"fig3":      func() { printFig3(env) },
		"fig4":      func() { printFig4(env, resolutions) },
		"foveated":  func() { printFoveated(env) },
		"keypoints": func() { printKeypointCount(env) },
		"finetune":  func() { printFineTune(env) },
		"slimmable": func() { printSlimmable(env) },
		"textdelta": func() { printTextDelta(env, *frames*4) },
		"codecs":    func() { printCodecs(env) },
		"qoe":       func() { printQoE(env) },
	}
	if *exp == "all" {
		// Fixed, readable order.
		for _, name := range []string{
			"table1", "table2", "fig2", "fig3", "fig4",
			"foveated", "keypoints", "finetune", "slimmable", "textdelta", "codecs", "qoe",
		} {
			run(name, experimentsByName[name])
		}
		return
	}
	fn, ok := experimentsByName[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	run(*exp, fn)
}

func parseResolutions(arg string, full bool) []int {
	if arg == "" {
		if full {
			return []int{128, 256, 512, 1024}
		}
		// Default keeps runs interactive; -full reproduces the paper's
		// axis exactly.
		return []int{64, 128, 256}
	}
	var out []int
	for _, tok := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 4 {
			fmt.Fprintf(os.Stderr, "bad resolution %q\n", tok)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func printTable1(env *experiments.Env, frames int) {
	fmt.Println("Taxonomy measurement (paper Table 1; L/M/H made quantitative).")
	rows := experiments.Table1(env, frames)
	fmt.Printf("%-12s %-12s %12s %12s %14s %10s %10s %8s\n",
		"semantics", "output", "extract(ms)", "recon(ms)", "bytes/frame", "Mbps@30", "chamfer(m)", "PSNR")
	for _, r := range rows {
		chamfer := "n/a"
		if r.Chamfer == r.Chamfer { // not NaN
			chamfer = fmt.Sprintf("%.4f", r.Chamfer)
		}
		fmt.Printf("%-12s %-12s %12.2f %12.2f %14.0f %10.3f %10s %8.1f\n",
			r.Mode, r.OutputFormat, r.ExtractMs, r.ReconstructMs, r.BytesPerFrame, r.Mbps, chamfer, r.PSNR)
	}
}

func printTable2(env *experiments.Env, frames int) {
	fmt.Println("Required bandwidth at 30 FPS (paper Table 2: semantic 0.46/0.30, traditional 95.4/10.1 Mbps).")
	fmt.Println(experiments.Table2(env, frames).String())
}

func printFig2(env *experiments.Env, resolutions []int) {
	fmt.Println("Reconstruction quality vs output resolution (paper Figure 2).")
	fmt.Printf("%10s %12s %14s %12s %14s %10s %10s\n",
		"resolution", "chamfer(m)", "hausdorff95(m)", "f@5mm", "hand chamfer", "vertices", "faces")
	for _, p := range experiments.Fig2(env, resolutions) {
		hand := "n/a"
		if p.HandChamfer == p.HandChamfer {
			hand = fmt.Sprintf("%.4f", p.HandChamfer)
		}
		fmt.Printf("%10d %12.4f %14.4f %12.3f %14s %10d %10d\n",
			p.Resolution, p.Chamfer, p.Hausdorff95, p.FScore, hand, p.Vertices, p.Faces)
	}
}

func printFig3(env *experiments.Env) {
	fmt.Println("Texture fidelity (paper Figure 3: learned texture misses the current expression).")
	r := experiments.Fig3(env, 96)
	fmt.Printf("delivered (current-frame) texture: PSNR %.1f dB  SSIM %.3f\n", r.FreshPSNR, r.FreshSSIM)
	fmt.Printf("learned (cold-start) texture:      PSNR %.1f dB  SSIM %.3f\n", r.StalePSNR, r.StaleSSIM)
}

func printFig4(env *experiments.Env, resolutions []int) {
	fmt.Println("Reconstruction rate vs resolution (paper Figure 4: <3 FPS at 128 even on an A100).")
	fmt.Printf("%10s %14s %10s %14s %10s %10s %10s %18s\n",
		"resolution", "s/frame", "FPS", "par s/frame", "par FPS", "speedup",
		"hit rate", "dense sec/frame")
	for _, p := range experiments.Fig4(env, resolutions, true, 128) {
		dense, parSec, parFPS, speedup := "-", "-", "-", "-"
		if p.DenseSecondsPerFrame > 0 {
			dense = fmt.Sprintf("%.3f", p.DenseSecondsPerFrame)
		}
		if p.ParSecondsPerFrame > 0 {
			parSec = fmt.Sprintf("%.3f", p.ParSecondsPerFrame)
			parFPS = fmt.Sprintf("%.2f", p.ParFPS)
			speedup = fmt.Sprintf("%.2fx@%d", p.SecondsPerFrame/p.ParSecondsPerFrame, p.Workers)
		}
		fmt.Printf("%10d %14.3f %10.2f %14s %10s %10s %10.2f %18s\n",
			p.Resolution, p.SecondsPerFrame, p.FPS, parSec, parFPS, speedup,
			p.CacheHitRate, dense)
	}
}

func printFoveated(env *experiments.Env) {
	fmt.Println("Foveated hybrid trade-off (§3.1): foveal radius vs bandwidth vs quality.")
	fmt.Printf("%12s %14s %10s %12s %16s %16s\n",
		"radius(deg)", "bytes/frame", "Mbps@30", "decode(ms)", "foveal chamfer", "global chamfer")
	for _, p := range experiments.Foveated(env, []float64{2, 4, 6, 10, 15}) {
		fmt.Printf("%12.0f %14.0f %10.3f %12.1f %16.4f %16.4f\n",
			p.RadiusDeg, p.BytesPerFrame, p.Mbps, p.DecodeMs, p.FovealChamfer, p.GlobalChamfer)
	}
}

func printKeypointCount(env *experiments.Env) {
	fmt.Println("Keypoint count trade-off (§3.1): more keypoints, better fit, more extraction work.")
	fmt.Printf("%10s %14s %12s %12s\n", "keypoints", "fit error(m)", "chamfer(m)", "extract(ms)")
	for _, p := range experiments.KeypointCount(env, []int{17, 27, 57, 71}) {
		fmt.Printf("%10d %14.4f %12.4f %12.2f\n", p.Keypoints, p.FitErrorM, p.Chamfer, p.ExtractMs)
	}
}

func printFineTune(env *experiments.Env) {
	fmt.Println("NeRF continuous learning (§3.2): changed-pixel fine-tune vs retrain at equal budget.")
	r := experiments.FineTune(env)
	fmt.Printf("cold start: %d steps; per-frame budget: %d steps\n", r.ColdStartSteps, r.Budget)
	fmt.Printf("changed rays: %d / %d total\n", r.ChangedRays, r.TotalRays)
	fmt.Printf("fine-tune loss: %.4f   retrain-from-scratch loss: %.4f\n", r.FineTuneLoss, r.ScratchLoss)
}

func printSlimmable(env *experiments.Env) {
	fmt.Println("Slimmable sub-networks (§3.2): width vs parameters vs render time vs quality.")
	fmt.Printf("%8s %10s %12s %8s\n", "width", "params", "render(ms)", "PSNR")
	for _, p := range experiments.Slimmable(env, []int{8, 16, 32}) {
		fmt.Printf("%8d %10d %12.1f %8.1f\n", p.Width, p.Params, p.RenderMs, p.PSNR)
	}
}

func printTextDelta(env *experiments.Env, frames int) {
	fmt.Println("Text delta encoding (§3.3): per-frame wire bytes, keyframe vs deltas.")
	fmt.Printf("%8s %10s %12s %14s\n", "frame", "keyframe", "raw bytes", "lzr bytes")
	for _, p := range experiments.TextDelta(env, frames) {
		fmt.Printf("%8d %10v %12d %14d\n", p.Frame, p.Keyframe, p.RawBytes, p.CompressedBytes)
	}
}

func printQoE(env *experiments.Env) {
	fmt.Println("End-to-end QoE over the paper's 25 Mbps broadband link (quality × latency × FPS).")
	fmt.Printf("%-16s %10s %14s %14s %10s %8s\n",
		"mode", "link Mbps", "p95 latency", "delivered FPS", "quality", "QoE")
	for _, p := range experiments.QoE(env, netsim.BroadbandUS(env.Seed), 15) {
		fmt.Printf("%-16s %10.0f %12.1fms %14.1f %10.3f %8.3f\n",
			p.Mode, p.LinkMbps, p.P95LatencyMs, p.DeliveredFPS, p.Quality, p.Score)
	}
}

func printCodecs(env *experiments.Env) {
	fmt.Println("Codec comparison across wire payload types.")
	fmt.Printf("%-14s %-10s %10s %10s %8s %12s\n", "payload", "codec", "raw", "encoded", "ratio", "encode(ms)")
	for _, p := range experiments.Codecs(env) {
		fmt.Printf("%-14s %-10s %10d %10d %8.1f %12.2f\n",
			p.Payload, p.Codec, p.Raw, p.Encoded, p.Ratio, p.EncodeMs)
	}
}
