// Quickstart: the smallest complete SemHolo session. One simulated
// capture site streams a talking participant to a receiver over an
// emulated 25 Mbps broadband link (the paper's deployment constraint)
// using keypoint-based semantics, and the receiver reconstructs a mesh
// every frame in a one-tenant decode service. Both sides run the staged
// pipeline runtime: capture, encode, and send overlap on the sender;
// recv, decode, and render overlap on the receiver. Lossless queues keep
// every frame — this is a short clip, not a live call — so all 30 frames
// arrive.
package main

import (
	"context"
	"fmt"
	"log"

	"semholo"
)

func main() {
	ctx := context.Background()

	// A simulated telepresence site: parametric human + RGB-D ring rig.
	world := semholo.NewWorld(semholo.WorldOptions{Seed: 7})

	// The keypoint pipeline: ~1.6 KB of body parameters per frame on
	// the wire, implicit-surface reconstruction at the receiver — in a
	// decode service whose default tenant decoder is the keypoint one.
	enc, _ := semholo.NewKeypointPipeline(world, semholo.KeypointOptions{})
	svc := semholo.NewDecodeService(semholo.ServiceOptions{Model: world.Model, Resolution: 48})
	defer svc.Close()

	// An emulated US-broadband link connects the two sites.
	a, b, link := semholo.EmulatedLink(semholo.BroadbandUS(7))
	defer link.Close()

	// Handshake (the receiving side runs concurrently, as it would in a
	// real deployment) and staged receive: frames decode while the next
	// one is still on the wire.
	done := make(chan error, 1)
	go func() {
		sess, _, err := semholo.ServeContext(ctx, b, semholo.Hello{Peer: "bob", Mode: string(semholo.ModeKeypoint)})
		if err != nil {
			done <- err
			return
		}
		tenant, err := svc.Admit("bob")
		if err != nil {
			done <- err
			return
		}
		i := 0
		_, err = semholo.RunReceiverPipeline(ctx, &semholo.Receiver{Session: sess}, tenant, func(data semholo.FrameData) error {
			if i%10 == 0 {
				fmt.Printf("bob: frame %2d — %d vertices, pelvis at %v\n",
					i, len(data.Mesh.Vertices), data.Params.Translation)
			}
			i++
			return nil
		}, semholo.PipelineReceiverOptions{Frames: 30, Lossless: true})
		done <- err
	}()

	sess, peer, err := semholo.ConnectContext(ctx, a, semholo.Hello{Peer: "alice", Mode: string(semholo.ModeKeypoint)})
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	fmt.Printf("alice: connected to %s\n", peer.Peer)

	// Staged send: encode overlaps the wire write of the previous frame.
	sender := &semholo.Sender{Session: sess, Encoder: enc}
	if _, err := semholo.RunSenderPipeline(ctx, sender, func(i int) (semholo.Capture, bool) {
		return world.FrameAt(i), true
	}, semholo.PipelineSenderOptions{Frames: 30, Lossless: true}); err != nil {
		log.Fatalf("send: %v", err)
	}
	if err := <-done; err != nil {
		log.Fatalf("receive: %v", err)
	}
	sent := sess.Stats().BytesSent
	perFrame := float64(sent) / 30
	fmt.Printf("alice: 30 frames in %.1f KB total (%.0f bytes/frame) — %.2f Mbps at 30 FPS\n",
		float64(sent)/1024, perFrame, perFrame*8*30/1e6)
}
