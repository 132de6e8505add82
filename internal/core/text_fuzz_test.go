package core

import (
	"math"
	"runtime"
	"testing"

	"semholo/internal/textsem"
	"semholo/internal/transport"
)

// textFuzzBudget is the fuzzed decoder's point budget: small, so that
// what a decode allocates is bounded by its input, not by the budget.
const textFuzzBudget = 256

// textAllocPerInputByte bounds the decoder's allocation per input byte:
// the split lines and their strings, the document maps (a delta copies
// the keyframe's), each cell's parse scratch and its share of the
// budget's point and colour arrays. A cell line is at least 38 bytes.
const textAllocPerInputByte = 160

// allocatedBytes reports the fewest bytes the heap handed out across
// three runs of fn. TotalAlloc is process-wide, so one reading can
// include a fuzzing-engine goroutine's allocations; fn's own are the
// same on every run.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// textFrame is one uncompressed text-rung wire frame.
func textFrame(payload []byte, keyframe bool) []transport.Frame {
	flags := transport.FlagEndOfFrame
	if keyframe {
		flags |= transport.FlagKeyframe
	}
	return []transport.Frame{{Type: transport.TypeSemantic, Channel: ChanTextGlobal, Flags: flags, Payload: payload}}
}

// decodeTextPair decodes a keyframe and then a delta against it on a
// fresh decoder, checking each generated cloud against the budget: at
// most PointBudget points plus one per cell (each occupied cell keeps at
// least one point, and rounding adds at most one more between two).
func decodeTextPair(t *testing.T, key, delta []byte) {
	d := &TextDecoder{Generator: textsem.Generator{PointBudget: textFuzzBudget}}
	for i, f := range [][]transport.Frame{textFrame(key, true), textFrame(delta, false)} {
		data, err := d.Decode(f)
		if err != nil {
			return
		}
		if n, limit := data.Cloud.Len(), textFuzzBudget+len(d.doc.Cells); n > limit {
			t.Fatalf("frame %d: %d points from %d cells, budget %d", i, n, len(d.doc.Cells), textFuzzBudget)
		}
	}
}

// textSeeds are the text rung's round trip — a keyframe document and a
// delta against it, as TextEncoder ships them uncompressed — plus the
// hostile documents textsem refuses: negative, overflowing and
// out-of-grid cells.
func textSeeds(t testing.TB) [][2][]byte {
	// Metre cells keep the documents small, so that minimising an input
	// the engine finds takes seconds.
	enc := &TextEncoder{Captioner: textsem.Captioner{CellSize: 1, Precision: 2}, KeyframeInterval: 10}
	var payloads [][]byte
	for i := 0; i < 2; i++ {
		ef, err := enc.Encode(testSeq.FrameAt(i))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, ef.Channels[0].Payload)
	}
	const g = "G|a person standing; centroid 0 0 0; 10 points\n"
	cell := func(x, n string) string {
		return "C|region " + x + " 0 0 holds " + n + " points near 0 0 0 spread 0.1 0.1 0.1 colored 0.5 0.5 0.5\n"
	}
	return [][2][]byte{
		{payloads[0], payloads[1]},
		{payloads[0], nil},
		{[]byte(g + cell("0", "40000") + cell("1", "-39999")), []byte("R|1 0 0\n")},
		{[]byte(g + cell("0", "7686143364045646507") + cell("1", "7686143364045646507") + cell("2", "7686143364045646507")), nil},
		{[]byte(g + cell("300", "5")), []byte("R|300 0 0\n" + cell("-128", "9"))},
		{[]byte("G|\n"), []byte("G|x\n")},
	}
}

// FuzzTextDecode feeds TextDecoder a keyframe and a delta against it,
// seeded with the text rung's round trip and the hostile documents: it
// must never panic, never generate more than the point budget allows,
// and never allocate more than its input accounts for.
func FuzzTextDecode(f *testing.F) {
	for _, s := range textSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, key, delta []byte) {
		if len(key)+len(delta) > 4<<10 {
			t.Skip("input over 4 KiB") // the bounds under test do not depend on size
		}
		limit := 64<<10 + textAllocPerInputByte*uint64(len(key)+len(delta))
		if got := allocatedBytes(func() { decodeTextPair(t, key, delta) }); got > limit {
			t.Fatalf("%d+%d input bytes allocated %d B, ceiling %d", len(key), len(delta), got, limit)
		}
	})
}
