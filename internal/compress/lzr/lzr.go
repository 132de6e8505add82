package lzr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

const (
	minMatch    = 3
	maxMatch    = minMatch + 255 // length fits one 8-bit tree symbol
	hashBits    = 16
	maxChain    = 64 // match-finder chain depth
	numSlotBits = 6  // distance slot tree width
)

var (
	// ErrCorrupt is returned when the compressed stream is malformed.
	ErrCorrupt = errors.New("lzr: corrupt stream")
	magic      = [4]byte{'L', 'Z', 'R', '1'}
)

// model is the adaptive probability state, one flat value: encoder and
// decoder each start from a copy of initialModel and adapt it in
// lock-step. The bit trees index their slice from node 1.
type model struct {
	isMatch  [2]prob                // context: previous token was a match
	literals [8][256]prob           // 8 trees selected by high bits of previous byte
	length   [256]prob              // match length − minMatch (8-bit)
	slot     [1 << numSlotBits]prob // distance slot (6-bit)
}

var initialModel = func() (m model) {
	m.isMatch = [2]prob{probInit, probInit}
	for i := range m.literals {
		fill(m.literals[i][:])
	}
	fill(m.length[:])
	fill(m.slot[:])
	return m
}()

func fill(probs []prob) {
	for i := range probs {
		probs[i] = probInit
	}
}

func litContext(prev byte) int { return int(prev >> 5) }

// distance slots, LZMA style: slot 0..3 encode distances 1..4 directly;
// higher slots carry (slot/2 − 1) direct footer bits.
func distSlot(dist uint32) (slot uint32, footer uint32, footerBits int) {
	d := dist - 1
	if d < 4 {
		return d, 0, 0
	}
	n := bits.Len32(d) - 1 // index of d's top bit
	slot = uint32(n<<1) | (d >> uint(n-1) & 1)
	footerBits = n - 1
	footer = d & (1<<uint(footerBits) - 1)
	return slot, footer, footerBits
}

func distFromSlot(slot uint32, footer uint32) uint32 {
	if slot < 4 {
		return slot + 1
	}
	n := int(slot >> 1)
	base := (2 | (slot & 1)) << uint(n-1)
	return base + footer + 1
}

// encoderScratch is Compress's pooled scratch: the hash-chain match
// finder and the range coder's output. head maps a 3-byte-prefix hash to
// the stamp of the most recent position with that hash, chain links each
// position's stamp to the previous one sharing its hash. A stamp is base
// plus the position; base advances past every call's positions, so a
// stamp below it is an earlier call's, which reads as empty, and head is
// cleared only when the stamps would overflow int32. Pooled because head
// alone is 256 KiB — far more than the ~1.6 kB pose payloads Compress
// sees three times per frame.
type encoderScratch struct {
	head  [1 << hashBits]int32
	base  int32
	chain []int32
	out   []byte
}

var scratchPool = sync.Pool{New: func() any { return &encoderScratch{base: 1} }}

// matchLen returns how many leading bytes a and b share, up to limit
// (both hold at least limit bytes).
func matchLen(a, b []byte, limit int) int {
	l := 0
	for ; l+8 <= limit; l += 8 {
		if x := binary.LittleEndian.Uint64(a[l:]) ^ binary.LittleEndian.Uint64(b[l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < limit && a[l] == b[l] {
		l++
	}
	return l
}

// Compress returns a self-describing compressed representation of src.
// Compress never fails; incompressible input grows by a small header.
// The result, exact-size (cap == len), is its only allocation once the
// pooled scratch is warm.
func Compress(src []byte) []byte {
	s := scratchPool.Get().(*encoderScratch)
	defer scratchPool.Put(s)
	var e rangeEncoder
	e.init(binary.AppendUvarint(append(s.out[:0], magic[:]...), uint64(len(src))))
	if len(src) > 0 {
		s.encode(&e, src)
	}
	s.out = e.out
	out := make([]byte, len(e.out))
	copy(out, e.out)
	return out
}

// encode codes non-empty src with e.
func (s *encoderScratch) encode(e *rangeEncoder, src []byte) {
	m := initialModel
	if int64(s.base)+int64(len(src)) > math.MaxInt32 {
		clear(s.head[:])
		s.base = 1
	}
	base := s.base
	s.base += int32(len(src))
	head := s.head[:]
	if cap(s.chain) < len(src) {
		s.chain = make([]int32, len(src))
	}
	// chain needs no reset: an entry is written (insert) before any
	// search can reach it.
	chain := s.chain[:len(src)]
	hash3 := func(i int) uint32 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return (v * 2654435761) >> (32 - hashBits)
	}
	insert := func(i int) {
		if i+minMatch > len(src) {
			return
		}
		h := hash3(i)
		chain[i] = head[h]
		head[h] = base + int32(i)
	}

	prevByte := byte(0)
	lastWasMatch := 0
	pos := 0
	for pos < len(src) {
		bestLen, bestDist := 0, 0
		if pos+minMatch <= len(src) {
			limit := min(len(src)-pos, maxMatch)
			cand := head[hash3(pos)]
			for depth := 0; cand >= base && depth < maxChain; depth++ {
				c := int(cand - base)
				cand = chain[c]
				// Quick reject: a match that can beat bestLen must at
				// least agree at offset bestLen (bestLen < limit holds
				// here because the search breaks once bestLen == limit).
				if bestLen > 0 && src[c+bestLen] != src[pos+bestLen] {
					continue
				}
				if l := matchLen(src[c:], src[pos:], limit); l > bestLen {
					bestLen, bestDist = l, pos-c
					if l == limit {
						break
					}
				}
			}
		}
		if bestLen >= minMatch {
			e.encodeBit(&m.isMatch[lastWasMatch], 1)
			e.encodeTree(m.length[:], 8, uint32(bestLen-minMatch))
			slot, footer, fb := distSlot(uint32(bestDist))
			e.encodeTree(m.slot[:], numSlotBits, slot)
			if fb > 0 {
				e.encodeDirect(footer, fb)
			}
			for i := 0; i < bestLen; i++ {
				insert(pos + i)
			}
			pos += bestLen
			prevByte = src[pos-1]
			lastWasMatch = 1
		} else {
			e.encodeBit(&m.isMatch[lastWasMatch], 0)
			b := src[pos]
			e.encodeTree(m.literals[litContext(prevByte)][:], 8, uint32(b))
			insert(pos)
			prevByte = b
			pos++
			lastWasMatch = 0
		}
	}
	e.flush()
}

// reserveRatio bounds Decompress's up-front output reservation at this
// many bytes per stream byte. The declared length is the peer's claim,
// not yet backed by data: reserving it outright would let a 14-byte
// header declaring 4 GiB allocate 4 GiB before the stream fails. Output
// past the reservation grows only as the stream produces it.
const reserveRatio = 64

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) {
	out, err := decompress(data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decompress is Decompress, returning on error the output produced
// before the stream failed (what its allocations are bounded by).
func decompress(data []byte) ([]byte, error) {
	if len(data) < 4 || data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] || data[3] != magic[3] {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[4:]
	origLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if origLen > 1<<32 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, origLen)
	}
	rest = rest[n:]
	if origLen == 0 {
		return []byte{}, nil
	}

	m := initialModel
	var d rangeDecoder
	d.init(rest)
	out := make([]byte, 0, min(origLen, reserveRatio*uint64(len(rest))))
	prevByte := byte(0)
	lastWasMatch := 0
	for uint64(len(out)) < origLen {
		if d.err {
			return out, fmt.Errorf("%w: truncated stream", ErrCorrupt)
		}
		if d.decodeBit(&m.isMatch[lastWasMatch]) == 1 {
			length := int(d.decodeTree(m.length[:], 8)) + minMatch
			slot := d.decodeTree(m.slot[:], numSlotBits)
			var footer uint32
			if slot >= 4 {
				fb := int(slot>>1) - 1
				footer = d.decodeDirect(fb)
			}
			dist := int(distFromSlot(slot, footer))
			if dist <= 0 || dist > len(out) {
				return out, fmt.Errorf("%w: distance %d beyond window %d", ErrCorrupt, dist, len(out))
			}
			if uint64(len(out)+length) > origLen {
				return out, fmt.Errorf("%w: match overruns declared length", ErrCorrupt)
			}
			start := len(out) - dist
			for i := 0; i < length; i++ {
				out = append(out, out[start+i])
			}
			prevByte = out[len(out)-1]
			lastWasMatch = 1
		} else {
			b := byte(d.decodeTree(m.literals[litContext(prevByte)][:], 8))
			out = append(out, b)
			prevByte = b
			lastWasMatch = 0
		}
	}
	// A stream that ran out while its last symbol was decoded: the
	// decoder reads exactly what the encoder wrote, so a valid stream
	// never underruns.
	if d.err {
		return out, fmt.Errorf("%w: truncated stream", ErrCorrupt)
	}
	return out, nil
}
