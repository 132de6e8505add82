package core

import (
	"sync"
	"testing"

	"semholo/internal/compress"
	"semholo/internal/compress/dracogo"
	"semholo/internal/gaze"
	"semholo/internal/geom"
)

// TestHybridGazeAnchorConcurrentUpdates is the control-plane race
// regression: gaze reports land on SetGazeAnchor from the session's
// control goroutine while Encode/Decode run on the pipeline goroutine.
// Run under -race this catches any unsynchronized anchor access; it also
// checks a decode never observes a half-written anchor (the old two
// plain fields could tear between anchor and hasAnchor).
func TestHybridGazeAnchorConcurrentUpdates(t *testing.T) {
	sel := gaze.FovealSelector{Radius: 8, ViewDistance: 2}
	enc := &HybridEncoder{
		Keypoint:    newKeypointEncoder(),
		Selector:    sel,
		MeshOptions: dracogo.Options{PositionBits: 14},
	}
	dec := &HybridDecoder{
		Model:                testModel,
		Codec:                compress.LZR(),
		PeripheralResolution: 24,
		Selector:             sel,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := geom.V3(0, 1.5, 0.1+float64(i%7)*0.05)
			enc.SetGazeAnchor(a)
			dec.SetGazeAnchor(a)
		}
	}()

	for i := 0; i < 8; i++ {
		ef, err := enc.Encode(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		data, err := dec.Decode(toFrames(ef))
		if err != nil {
			t.Fatal(err)
		}
		if data.Mesh == nil || len(data.Mesh.Vertices) == 0 {
			t.Fatalf("frame %d: empty decoded mesh", i)
		}
	}
	close(stop)
	wg.Wait()
}
