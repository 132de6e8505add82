package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"semholo/internal/compress"
	"semholo/internal/mesh"
	"semholo/internal/transport"
)

// Golden digests of the three-rung semantic ladder over testSeq's first
// five talking frames: what every rung puts on the wire, and what an
// AdaptiveDecoder{Keypoint, Hybrid} makes of each rung. Either moving
// means a codec path changed the bytes or the decoded output.
const (
	goldenLadderWireDigest   = "439fd91d99d470c04d7690a5780e593af8c6a487e98503a18224512f0be4aa0d"
	goldenLadderDecodeDigest = "8959b2eb7a4ff94e89ba878fd8acb7b7722d0ac05545de6cbc2c8a22849fea00"
	goldenLadderFrames       = 5
)

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashFrameData folds decoded params (their float64 frame) and every
// element of the mesh into h.
func hashFrameData(h hash.Hash, fd FrameData) {
	if fd.Params == nil {
		putU64(h, 0)
	} else {
		h.Write(fd.Params.Marshal())
	}
	m := fd.Mesh
	if m == nil {
		m = &mesh.Mesh{}
	}
	putU64(h, uint64(len(m.Vertices)))
	for _, v := range m.Vertices {
		putU64(h, math.Float64bits(v.X))
		putU64(h, math.Float64bits(v.Y))
		putU64(h, math.Float64bits(v.Z))
	}
	putU64(h, uint64(len(m.Normals)))
	for _, v := range m.Normals {
		putU64(h, math.Float64bits(v.X))
		putU64(h, math.Float64bits(v.Y))
		putU64(h, math.Float64bits(v.Z))
	}
	putU64(h, uint64(len(m.UVs)))
	for _, v := range m.UVs {
		putU64(h, math.Float64bits(v.X))
		putU64(h, math.Float64bits(v.Y))
	}
	putU64(h, uint64(len(m.Faces)))
	for _, f := range m.Faces {
		putU64(h, uint64(f.A))
		putU64(h, uint64(f.B))
		putU64(h, uint64(f.C))
	}
}

// newLadderGoldenDecoder is the receiver the decode digest pins: the
// keypoint and hybrid decoders a semantic-ladder subscriber runs, the
// hybrid one anchored where the sender's gaze is.
func newLadderGoldenDecoder(t *testing.T) *AdaptiveDecoder {
	t.Helper()
	_, sel, anchor := newSemanticLadderFixture(t)
	hy := &HybridDecoder{Model: testModel, Codec: compress.LZR(), PeripheralResolution: 24, Selector: sel, Workers: 1}
	hy.SetGazeAnchor(anchor)
	return &AdaptiveDecoder{
		Keypoint: &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 32, Workers: 1},
		Hybrid:   hy,
	}
}

// TestSemanticLadderGoldenDigest pins (i) the channel, flags and bytes of
// every rung's every channel and (ii) the decoded Params and Mesh of
// every rung, each as one SHA-256 over the sequence.
func TestSemanticLadderGoldenDigest(t *testing.T) {
	ladder, _, _ := newSemanticLadderFixture(t)
	dec := newLadderGoldenDecoder(t)
	wire, decoded := sha256.New(), sha256.New()
	for i := 0; i < goldenLadderFrames; i++ {
		lf, err := ladder.EncodeAll(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		for tier, ef := range lf.Tiers {
			putU64(wire, uint64(tier))
			putU64(wire, uint64(len(ef.Channels)))
			for _, ch := range ef.Channels {
				putU64(wire, uint64(ch.Channel))
				putU64(wire, uint64(ch.Flags))
				putU64(wire, uint64(len(ch.Payload)))
				wire.Write(ch.Payload)
			}
			fd, err := dec.Decode(toFrames(ef))
			if err != nil {
				t.Fatalf("frame %d tier %d: %v", i, tier, err)
			}
			putU64(decoded, uint64(tier))
			hashFrameData(decoded, fd)
		}
	}
	if got := hex.EncodeToString(wire.Sum(nil)); got != goldenLadderWireDigest {
		t.Errorf("ladder wire digest %s, want %s", got, goldenLadderWireDigest)
	}
	if got := hex.EncodeToString(decoded.Sum(nil)); got != goldenLadderDecodeDigest {
		t.Errorf("ladder decode digest %s, want %s", got, goldenLadderDecodeDigest)
	}
}

// TestRung1GarbageTextureDecodesAsRung0 holds that rung 1's texture
// channel is shipped but not drawn: a rung-1 frame whose texture payload
// is garbage decodes, through a bare KeypointDecoder and through an
// AdaptiveDecoder, to exactly rung 0's Params and Mesh for that capture.
func TestRung1GarbageTextureDecodesAsRung0(t *testing.T) {
	ladder, _, _ := newSemanticLadderFixture(t)
	lf, err := ladder.EncodeAll(testSeq.FrameAt(2))
	if err != nil {
		t.Fatal(err)
	}
	rung1 := toFrames(lf.Tiers[1])
	if len(rung1) != 2 || rung1[0].Channel != ChanTextureData {
		t.Fatalf("rung 1 is not texture + pose: %d channels", len(rung1))
	}
	rung1[0].Payload = []byte{0xde, 0xad, 0xbe, 0xef, 0x01}

	digest := func(fd FrameData) string {
		h := sha256.New()
		hashFrameData(h, fd)
		return hex.EncodeToString(h.Sum(nil))
	}
	kp := &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 32, Workers: 1}
	want, err := kp.Decode(toFrames(lf.Tiers[0]))
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := digest(want)
	for name, dec := range map[string]Decoder{
		"keypoint": &KeypointDecoder{Model: testModel, Codec: compress.LZR(), Resolution: 32, Workers: 1},
		"adaptive": newLadderGoldenDecoder(t),
	} {
		got, err := dec.Decode(rung1)
		if err != nil {
			t.Fatalf("%s: rung 1 with a garbage texture: %v", name, err)
		}
		if d := digest(got); d != wantDigest {
			t.Errorf("%s: rung 1 decodes to %s, rung 0 to %s", name, d, wantDigest)
		}
	}
	if rung1[len(rung1)-1].Flags&transport.FlagEndOfFrame == 0 {
		t.Error("rung 1's pose channel does not close the frame")
	}
}
