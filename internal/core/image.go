package core

import (
	"encoding/json"
	"fmt"

	"semholo/internal/capture"
	"semholo/internal/geom"
	"semholo/internal/nerf"
	"semholo/internal/pointcloud"
	"semholo/internal/render"
	"semholo/internal/texture"
	"semholo/internal/transport"
)

// imageHeader is the JSON setup payload the image encoder sends once:
// camera calibration and the NeRF scene box (the receiver needs both to
// turn pixels into supervision rays).
type imageHeader struct {
	Cameras   []cameraSpec `json:"cameras"`
	BoundsMin [3]float64   `json:"boundsMin"`
	BoundsMax [3]float64   `json:"boundsMax"`
	Near      float64      `json:"near"`
	Far       float64      `json:"far"`
	Samples   int          `json:"samples"`
	Widths    []int        `json:"widths"`
}

type cameraSpec struct {
	Width      int         `json:"w"`
	Height     int         `json:"h"`
	Fx         float64     `json:"fx"`
	Fy         float64     `json:"fy"`
	Cx         float64     `json:"cx"`
	Cy         float64     `json:"cy"`
	WorldToCam [16]float64 `json:"pose"`
}

func specFromCamera(c geom.Camera) cameraSpec {
	return cameraSpec{
		Width: c.Intr.Width, Height: c.Intr.Height,
		Fx: c.Intr.Fx, Fy: c.Intr.Fy, Cx: c.Intr.Cx, Cy: c.Intr.Cy,
		WorldToCam: [16]float64(c.WorldToCam),
	}
}

func (s cameraSpec) camera() geom.Camera {
	return geom.Camera{
		Intr: geom.Intrinsics{
			Width: s.Width, Height: s.Height,
			Fx: s.Fx, Fy: s.Fy, Cx: s.Cx, Cy: s.Cy,
		},
		WorldToCam: geom.Mat4(s.WorldToCam),
	}
}

// ImageEncoder implements image-based semantics (§3.2): ship the 2D RGB
// views (BTC-compressed) and let the receiver maintain a NeRF. The
// encoder's only job beyond compression is the one-time setup header;
// the heavy lifting — continuous learning — happens at the receiver.
type ImageEncoder struct {
	// Scene configures the receiver's NeRF sampling.
	Scene nerf.Scene
	// Widths are the slimmable operating points for the receiver net.
	Widths []int

	sentHeader bool
}

// Mode implements Encoder.
func (e *ImageEncoder) Mode() Mode { return ModeImage }

// Encode implements Encoder.
func (e *ImageEncoder) Encode(c capture.Capture) (EncodedFrame, error) {
	if len(c.Views) == 0 {
		return EncodedFrame{}, fmt.Errorf("core: image encoder needs views")
	}
	out := EncodedFrame{}
	if !e.sentHeader {
		widths := e.Widths
		if len(widths) == 0 {
			widths = []int{8, 16}
		}
		hdr := imageHeader{
			BoundsMin: [3]float64{e.Scene.Bounds.Min.X, e.Scene.Bounds.Min.Y, e.Scene.Bounds.Min.Z},
			BoundsMax: [3]float64{e.Scene.Bounds.Max.X, e.Scene.Bounds.Max.Y, e.Scene.Bounds.Max.Z},
			Near:      e.Scene.Near,
			Far:       e.Scene.Far,
			Samples:   e.Scene.Samples,
			Widths:    widths,
		}
		for _, v := range c.Views {
			hdr.Cameras = append(hdr.Cameras, specFromCamera(v.Camera))
		}
		payload, err := json.Marshal(hdr)
		if err != nil {
			return EncodedFrame{}, fmt.Errorf("core: image header: %w", err)
		}
		out.Channels = append(out.Channels, ChannelPayload{
			Channel: ChanImageHeader,
			Flags:   transport.FlagKeyframe,
			Payload: payload,
		})
		e.sentHeader = true
	}
	for i, v := range c.Views {
		if v.Colors == nil {
			return EncodedFrame{}, fmt.Errorf("core: view %d has no colors", i)
		}
		img, err := texture.CompressBTC(v.Colors, v.Camera.Intr.Width, v.Camera.Intr.Height)
		if err != nil {
			return EncodedFrame{}, fmt.Errorf("core: view %d: %w", i, err)
		}
		flags := transport.FlagCompressed | transport.FlagKeyframe
		if i == len(c.Views)-1 {
			flags |= transport.FlagEndOfFrame
		}
		out.Channels = append(out.Channels, ChannelPayload{
			Channel: ChanImageView + uint16(i),
			Flags:   flags,
			Payload: img,
		})
	}
	return out, nil
}

// ImageDecoder maintains the receiver NeRF: cold-start training on the
// first frame, changed-pixel fine-tuning afterwards (§3.2), and novel
// view rendering through a selectable slimmable width.
type ImageDecoder struct {
	// ColdStartSteps trains the first frame (default 150).
	ColdStartSteps int
	// FineTuneSteps adapts each subsequent frame (default 20).
	FineTuneSteps int
	// ChangeThreshold selects fine-tuning rays (default 0.05).
	ChangeThreshold float64
	// RayStride subsamples supervision rays (default 1).
	RayStride int
	// Width selects the rendering sub-network; 0 = widest.
	Width int
	// ViewCamera, when set, renders a novel view each frame.
	ViewCamera *geom.Camera
	// Seed makes training reproducible.
	Seed int64
	// Workers bounds NeRF training/rendering parallelism (0 =
	// GOMAXPROCS, 1 = serial). Training trajectories match the serial
	// path to floating-point reassociation; rendered views are
	// byte-identical.
	Workers int

	header  *imageHeader
	net     *nerf.Net
	trainer *nerf.Trainer
	scene   nerf.Scene
	prev    []*render.Frame
	started bool
	// spare holds frames two generations old (prev is still read for
	// changed-pixel selection, so frames rotate decode → prev → spare);
	// texScratch is the BTC pixel-decode buffer, reused every view.
	spare      []*render.Frame
	frameBuf   []*render.Frame
	texScratch []pointcloud.Color
}

// frameFor returns a supervision frame for cam, recycling the
// two-generations-old frame at the same view index when its dimensions
// still match.
func (d *ImageDecoder) frameFor(idx int, cam geom.Camera) *render.Frame {
	if idx < len(d.spare) {
		if fr := d.spare[idx]; fr != nil && fr.Camera.Intr.Width == cam.Intr.Width && fr.Camera.Intr.Height == cam.Intr.Height {
			d.spare[idx] = nil
			fr.Camera = cam
			return fr
		}
	}
	return render.NewFrame(cam)
}

// Mode implements Decoder.
func (d *ImageDecoder) Mode() Mode { return ModeImage }

// ResetState implements StateResetter: drop the trained field, scene
// setup, and previous-frame references so the next frame cold-starts
// (it must carry the image header again). Pure scratch buffers
// (frameBuf, texScratch) survive — they carry no cross-frame meaning.
func (d *ImageDecoder) ResetState() {
	d.header = nil
	d.net = nil
	d.trainer = nil
	d.scene = nerf.Scene{}
	d.prev = nil
	d.spare = nil
	d.started = false
}

func (d *ImageDecoder) defaults() {
	if d.ColdStartSteps == 0 {
		d.ColdStartSteps = 150
	}
	if d.FineTuneSteps == 0 {
		d.FineTuneSteps = 20
	}
	if d.ChangeThreshold == 0 {
		d.ChangeThreshold = 0.05
	}
	if d.RayStride == 0 {
		d.RayStride = 1
	}
}

// Decode implements Decoder.
func (d *ImageDecoder) Decode(channels []transport.Frame) (FrameData, error) {
	d.defaults()
	frames := d.frameBuf[:0]
	for _, f := range channels {
		switch {
		case f.Channel == ChanImageHeader:
			var hdr imageHeader
			if err := json.Unmarshal(f.Payload, &hdr); err != nil {
				return FrameData{}, fmt.Errorf("core: image header: %w", err)
			}
			d.header = &hdr
			d.scene = nerf.Scene{
				Bounds: geom.AABB{
					Min: geom.V3(hdr.BoundsMin[0], hdr.BoundsMin[1], hdr.BoundsMin[2]),
					Max: geom.V3(hdr.BoundsMax[0], hdr.BoundsMax[1], hdr.BoundsMax[2]),
				},
				Near:    hdr.Near,
				Far:     hdr.Far,
				Samples: hdr.Samples,
			}
			net, err := nerf.NewNet(hdr.Widths, d.Seed+1)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: image decoder net: %w", err)
			}
			d.net = net
			d.trainer = nerf.NewTrainer(net, d.scene, d.Seed+2)
			d.trainer.Workers = d.Workers
		case f.Channel >= ChanImageView:
			if d.header == nil {
				return FrameData{}, fmt.Errorf("core: image view before header")
			}
			idx := int(f.Channel - ChanImageView)
			if idx >= len(d.header.Cameras) {
				return FrameData{}, fmt.Errorf("core: view index %d beyond %d cameras", idx, len(d.header.Cameras))
			}
			colors, w, h, err := texture.DecompressBTCInto(d.texScratch, f.Payload)
			if err != nil {
				return FrameData{}, fmt.Errorf("core: image view %d: %w", idx, err)
			}
			d.texScratch = colors
			cam := d.header.Cameras[idx].camera()
			if w != cam.Intr.Width || h != cam.Intr.Height {
				return FrameData{}, fmt.Errorf("core: view %d is %dx%d, camera expects %dx%d", idx, w, h, cam.Intr.Width, cam.Intr.Height)
			}
			fr := d.frameFor(idx, cam)
			copy(fr.Color, colors)
			for i := len(frames); i < idx; i++ {
				frames = append(frames, nil)
			}
			frames = append(frames, fr)
		default:
			return FrameData{}, errUnexpectedChannel(ModeImage, f.Channel)
		}
	}
	if len(frames) == 0 {
		return FrameData{}, fmt.Errorf("core: image decoder got no views")
	}
	// Train: cold start on first frame, changed-pixel fine-tune after.
	width := d.Width
	if width == 0 {
		width = d.net.Widths[len(d.net.Widths)-1]
	}
	if !d.started {
		var rays []nerf.TrainRay
		for _, fr := range frames {
			if fr != nil {
				rays = append(rays, nerf.RaysFromFrame(fr, d.RayStride)...)
			}
		}
		d.trainer.StepsSlimmable(rays, d.ColdStartSteps)
		d.started = true
	} else {
		var changed []nerf.TrainRay
		for i, fr := range frames {
			if fr == nil || i >= len(d.prev) || d.prev[i] == nil {
				continue
			}
			changed = append(changed, nerf.ChangedRays(d.prev[i], fr, d.ChangeThreshold, d.RayStride)...)
		}
		if len(changed) > 0 {
			d.trainer.Steps(changed, d.FineTuneSteps, width)
		}
	}
	// Rotate: displaced prev frames become next Decode's spares; the
	// just-drained spare slice donates its backing array to the frame
	// list after that (three arrays cycle, frame objects double-buffer).
	d.frameBuf = d.spare[:0]
	d.spare = d.prev
	d.prev = frames

	out := FrameData{}
	if d.ViewCamera != nil {
		out.NovelView = d.net.RenderViewParallel(d.scene, *d.ViewCamera, width, d.Workers)
	}
	return out, nil
}

// RenderNovelView renders an arbitrary view from the current model state.
func (d *ImageDecoder) RenderNovelView(cam geom.Camera, width int) (*render.Frame, error) {
	if d.net == nil {
		return nil, fmt.Errorf("core: image decoder has no model yet")
	}
	if width == 0 {
		width = d.net.Widths[len(d.net.Widths)-1]
	}
	return d.net.RenderViewParallel(d.scene, cam, width, d.Workers), nil
}
