// Command semholo-render produces the image panels behind the paper's
// qualitative figures as PNG files: Figure 2 (ground truth vs keypoint
// reconstructions across output resolutions), Figure 3 (delivered vs
// learned texture on a face close-up), and one decoded-output panel per
// taxonomy pipeline. The panels are independent, so they render
// concurrently under a pipeline.Group: the first failure cancels the
// remaining work, and Ctrl-C aborts the run cleanly.
//
// Usage:
//
//	semholo-render -out ./renders
package main

import (
	"context"
	"flag"
	"fmt"
	"image/png"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"semholo/internal/avatar"
	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/experiments"
	"semholo/internal/geom"
	"semholo/internal/metrics"
	"semholo/internal/obs"
	"semholo/internal/pipeline"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/textsem"
)

func main() {
	var (
		out       = flag.String("out", "renders", "output directory")
		res       = flag.Int("size", 256, "render resolution (pixels)")
		seed      = flag.Int64("seed", 1, "scene seed")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and pprof on this address while rendering")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default, nil)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/metrics\n", srv.Addr())
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	// Reconstruction telemetry from the panel renders below is
	// scrape-able whenever the debug server is up.
	var recon metrics.ReconCounters
	recon.Register(obs.Default)

	// Shared, read-only scene inputs; each panel task below only reads.
	model := body.NewModel(nil, body.ModelOptions{Detail: 2})
	params := body.Talking(nil).At(0.9)
	truthMesh := model.Mesh(params)

	cam := geom.NewLookAtCamera(
		geom.IntrinsicsFromFOV(*res, *res, math.Pi/5),
		geom.V3(0.4, 1.1, 2.4), geom.V3(0, 1.0, 0), geom.V3(0, 1, 0))

	save := func(name string, f *render.Frame) error {
		path := filepath.Join(*out, name+".png")
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := png.Encode(file, f.Image()); err != nil {
			return fmt.Errorf("encode %s: %w", path, err)
		}
		log.Println("wrote", path)
		return nil
	}

	g, _ := pipeline.NewGroup(ctx)

	// Figure 2(a): textured ground truth from the capture.
	g.Go(func(context.Context) error {
		gt := render.NewFrame(cam)
		render.RenderMesh(gt, truthMesh, capture.SkinShader())
		return save("fig2a-ground-truth", gt)
	})

	// Figure 2(b–d): untextured keypoint reconstructions per resolution.
	g.Go(func(ctx context.Context) error {
		kps := model.Keypoints(params)
		fitted := avatar.Fit(model, kps, nil)
		fitted.Expression = params.Expression
		for _, r := range []int{64, 128, 256} {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rec := &avatar.Reconstructor{Model: model, Resolution: r, Counters: &recon}
			m := rec.Reconstruct(fitted)
			m.ComputeNormals()
			f := render.NewFrame(cam)
			render.RenderMesh(f, m, render.MeshOptions{})
			if err := save(fmt.Sprintf("fig2-recon-res%d", r), f); err != nil {
				return err
			}
		}
		return nil
	})

	// Taxonomy panel: the text pipeline's reconstructed point cloud.
	g.Go(func(context.Context) error {
		cloud := sampleCloud(truthMesh)
		doc := textsem.Captioner{CellSize: 0.2, Precision: 2}.Caption(cloud)
		recon, err := (textsem.Generator{}).Generate(doc)
		if err != nil {
			return err
		}
		fc := render.NewFrame(cam)
		render.RenderCloud(fc, recon, 2)
		return save("taxonomy-text-pointcloud", fc)
	})

	// Figure 3 panels: ground truth vs delivered vs learned texture.
	g.Go(func(context.Context) error {
		env := experiments.NewEnv(experiments.EnvOptions{Seed: *seed})
		f3 := experiments.Fig3(env, 96)
		if err := save("fig3-ground-truth", f3.GroundTruthView); err != nil {
			return err
		}
		if err := save("fig3-delivered-texture", f3.FreshView); err != nil {
			return err
		}
		return save("fig3-learned-texture", f3.StaleView)
	})

	if err := g.Wait(); err != nil {
		log.Fatal(err)
	}
}

// sampleCloud converts the mesh surface into a colored point cloud.
func sampleCloud(m interface {
	SamplePoints(int) []geom.Vec3
}) *pointcloud.Cloud {
	pts := m.SamplePoints(20000)
	c := pointcloud.New(len(pts))
	c.Points = pts
	c.Colors = make([]pointcloud.Color, len(pts))
	shader := capture.SkinShader().Shader
	for i, p := range pts {
		c.Colors[i] = shader(0, [3]float64{}, p, geom.Vec3{})
	}
	return c
}
