package pipeline

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"semholo/internal/body"
	"semholo/internal/capture"
	"semholo/internal/compress"
	"semholo/internal/core"
	"semholo/internal/geom"
	"semholo/internal/keypoint"
	"semholo/internal/netsim"
	"semholo/internal/textsem"
)

// TestStagedMatchesSequentialByteForByte is the wire-compatibility
// regression for the staged runtime: with drops disabled, overlapping
// the stages must be a pure scheduling change — the decoded output of a
// 50-frame motion sequence is identical to the sequential loop's
// (SendFrame, then NextRaw and StreamCtx.Decode one frame at a time),
// frame for frame, for every mode semholo-sender / semholo-receiver
// expose.
// Everything in the pipeline is seeded (capture noise, detector,
// one-euro filter driven by capture time), so any divergence is a real
// reordering or state-corruption bug. It is what lets the cmds run the
// staged runtime only.
func TestStagedMatchesSequentialByteForByte(t *testing.T) {
	const frames = 50
	model := body.NewModel(nil, body.ModelOptions{Detail: 1})
	seq := &capture.Sequence{
		Model:  model,
		Motion: body.Talking(nil),
		Rig:    capture.NewRing(4, 2.5, 1.0, geom.V3(0, 1.0, 0), 96, math.Pi/3, 17),
		FPS:    30,
		Render: capture.SkinShader(),
	}
	caps := make([]capture.Capture, frames)
	for i := range caps {
		caps[i] = seq.FrameAt(i)
	}

	// Fresh, identically-configured codec state per leg.
	modes := []struct {
		name  string
		codec func() (core.Encoder, core.Decoder)
	}{
		{"keypoint", func() (core.Encoder, core.Decoder) {
			return &core.KeypointEncoder{
				Model:    model,
				Detector: keypoint.NewDetector(keypoint.DefaultDetector()),
				Filter:   keypoint.NewOneEuroFilter(1.0, 0.3),
				Codec:    compress.LZR(),
			}, &core.KeypointDecoder{Model: model, Codec: compress.LZR(), Resolution: 32}
		}},
		{"traditional", func() (core.Encoder, core.Decoder) {
			return &core.TraditionalEncoder{}, &core.TraditionalDecoder{}
		}},
		{"text", func() (core.Encoder, core.Decoder) {
			return &core.TextEncoder{
				Captioner: textsem.Captioner{CellSize: 0.25, Precision: 2},
				Codec:     compress.LZR(),
			}, &core.TextDecoder{Codec: compress.LZR()}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			enc, dec := m.codec()
			sequential := runDeterminismLeg(t, enc, dec, caps, false)
			enc, dec = m.codec()
			staged := runDeterminismLeg(t, enc, dec, caps, true)

			if len(staged) != len(sequential) {
				t.Fatalf("staged decoded %d frames, sequential %d", len(staged), len(sequential))
			}
			for i := range sequential {
				want, got := sequential[i], staged[i]
				if want.Mesh == nil && want.Cloud == nil {
					t.Fatalf("frame %d: reference leg decoded no geometry", i)
				}
				if !reflect.DeepEqual(want.Params, got.Params) {
					t.Fatalf("frame %d: decoded params diverge", i)
				}
				if !reflect.DeepEqual(want.Mesh, got.Mesh) {
					t.Fatalf("frame %d: reconstructed mesh diverges", i)
				}
				if !reflect.DeepEqual(want.Cloud, got.Cloud) {
					t.Fatalf("frame %d: regenerated cloud diverges", i)
				}
			}
		})
	}
}

// runDeterminismLeg streams caps over a clean emulated link through the
// given codec pair and returns every decoded frame.
func runDeterminismLeg(t *testing.T, enc core.Encoder, dec core.Decoder, caps []capture.Capture, staged bool) []core.FrameData {
	t.Helper()
	ctx := context.Background()
	sendSess, recvSess, link := sessionPair(t, ctx, netsim.LinkConfig{})
	defer link.Close()

	sender := &core.Sender{Session: sendSess, Encoder: enc}
	receiver := &core.Receiver{Session: recvSess}
	tenant := tenantFor(t, dec)

	decoded := make([]core.FrameData, 0, len(caps))
	if staged {
		done := make(chan error, 1)
		go func() {
			_, err := RunReceiver(ctx, receiver, tenant, func(data core.FrameData) error {
				decoded = append(decoded, data)
				return nil
			}, ReceiverOptions{Frames: len(caps), Lossless: true})
			done <- err
		}()
		if _, err := RunSender(ctx, sender, func(i int) (capture.Capture, bool) {
			if i >= len(caps) {
				return capture.Capture{}, false
			}
			return caps[i], true
		}, SenderOptions{Lossless: true}); err != nil {
			t.Fatalf("staged sender: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("staged receiver: %v", err)
		}
	} else {
		done := make(chan error, 1)
		go func() {
			for range caps {
				raw, err := receiver.NextRaw()
				if err != nil {
					done <- err
					return
				}
				data, err := tenant.Decode(ctx, raw)
				if err != nil {
					done <- err
					return
				}
				decoded = append(decoded, data)
			}
			done <- nil
		}()
		for _, c := range caps {
			if err := sender.SendFrame(c); err != nil {
				t.Fatalf("sequential send: %v", err)
			}
		}
		if err := <-done; err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("sequential receive: %v", err)
		}
	}
	sendSess.Close()
	recvSess.Close()
	return decoded
}
