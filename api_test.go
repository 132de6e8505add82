package semholo

import (
	"context"
	"errors"
	"io"
	"testing"

	"semholo/internal/core"
	"semholo/internal/transport"
)

// TestPublicAPISession exercises the documented quickstart flow through
// the public facade only.
func TestPublicAPISession(t *testing.T) {
	world := NewWorld(WorldOptions{Seed: 41})
	enc, _ := NewKeypointPipeline(world, KeypointOptions{})
	svc := NewDecodeService(ServiceOptions{Model: world.Model, Resolution: 32})
	defer svc.Close()

	a, b, link := EmulatedLink(LinkConfig{})
	defer link.Close()

	type result struct {
		meshes int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		sess, _, err := Serve(b, Hello{Peer: "bob", Mode: string(ModeKeypoint)})
		if err != nil {
			done <- result{err: err}
			return
		}
		tenant, err := svc.Admit("bob")
		if err != nil {
			done <- result{err: err}
			return
		}
		receiver := &Receiver{Session: sess}
		meshes := 0
		for {
			raw, err := receiver.NextRaw()
			if errors.Is(err, core.ErrSessionClosed) || errors.Is(err, io.EOF) {
				done <- result{meshes: meshes}
				return
			}
			if err != nil {
				done <- result{err: err}
				return
			}
			data, err := tenant.Decode(context.Background(), raw)
			if err != nil {
				done <- result{err: err}
				return
			}
			if data.Mesh != nil {
				meshes++
			}
		}
	}()

	sess, peer, err := Connect(a, Hello{Peer: "alice", Mode: string(ModeKeypoint)})
	if err != nil {
		t.Fatal(err)
	}
	if peer.Peer != "bob" {
		t.Fatalf("peer = %+v", peer)
	}
	sender := &Sender{Session: sess, Encoder: enc}
	for i := 0; i < 3; i++ {
		if err := sender.SendFrame(world.FrameAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.meshes != 3 {
		t.Fatalf("receiver decoded %d meshes", r.meshes)
	}
}

func TestPublicAPIPipelineConstructors(t *testing.T) {
	world := NewWorld(WorldOptions{Seed: 42})
	c := world.FrameAt(0)

	for _, mk := range []struct {
		name string
		enc  Encoder
	}{
		{"keypoint", func() Encoder { e, _ := NewKeypointPipeline(world, KeypointOptions{Resolution: -1}); return e }()},
		{"traditional", func() Encoder { e, _ := NewTraditionalPipeline(); return e }()},
		{"text", func() Encoder { e, _ := NewTextPipeline(TextOptions{}); return e }()},
	} {
		ef, err := mk.enc.Encode(c)
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if ef.TotalBytes() == 0 {
			t.Errorf("%s produced empty frame", mk.name)
		}
	}

	encH, decH := NewHybridPipeline(world, HybridOptions{})
	if encH == nil || decH == nil {
		t.Fatal("hybrid constructor returned nil")
	}
}

func TestWorldDefaults(t *testing.T) {
	world := NewWorld(WorldOptions{})
	c := world.FrameAt(0)
	if len(c.Views) != 4 {
		t.Errorf("default cameras = %d", len(c.Views))
	}
	if c.Mesh == nil || c.Truth == nil {
		t.Error("capture incomplete")
	}
}

// The facade must stay wired to the real transport package types so
// advanced users can mix levels.
func TestFacadeTypeIdentity(t *testing.T) {
	var f WireFrame
	var tf transport.Frame = f // compile-time identity
	_ = tf
	if FrameTypeSemantic != transport.TypeSemantic {
		t.Error("frame type mismatch")
	}
}
