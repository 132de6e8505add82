package lzr

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// model holds the adaptive probability state shared (by construction,
// never by reference) between encoder and decoder.
type model struct {
	isMatch  [2]prob    // context: previous token was a match
	literals []*bitTree // 8 trees selected by high bits of previous byte
	length   *bitTree   // match length − minMatch (8-bit)
	slot     *bitTree   // distance slot (6-bit)
}

func newModel() *model {
	m := &model{
		isMatch:  [2]prob{probInit, probInit},
		literals: make([]*bitTree, 8),
		length:   newBitTree(8),
		slot:     newBitTree(numSlotBits),
	}
	for i := range m.literals {
		m.literals[i] = newBitTree(8)
	}
	return m
}

func litContext(prev byte) int { return int(prev >> 5) }

// distance slots, LZMA style: slot 0..3 encode distances 1..4 directly;
// higher slots carry (slot/2 − 1) direct footer bits.
func distSlot(dist uint32) (slot uint32, footer uint32, footerBits int) {
	d := dist - 1
	if d < 4 {
		return d, 0, 0
	}
	// number of bits in d
	n := 31
	for d>>uint(n) == 0 {
		n--
	}
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

// matchTables is the hash-chain match finder's scratch: head maps a
// 3-byte-prefix hash to the most recent position with that hash, chain
// links each position to the previous one sharing its hash. Pooled
// because head alone is 256 KiB — far more than the ~1.6 kB pose payloads
// Compress sees three times per frame.
type matchTables struct {
	head  [1 << hashBits]int32
	chain []int32
}

var matchTablesPool = sync.Pool{New: func() any { return new(matchTables) }}

// Compress returns a self-describing compressed representation of src.
// Compress never fails; incompressible input grows by a small header.
func Compress(src []byte) []byte {
	hdr := make([]byte, 4, 4+binary.MaxVarintLen64)
	copy(hdr, magic[:])
	hdr = binary.AppendUvarint(hdr, uint64(len(src)))
	if len(src) == 0 {
		return hdr
	}

	m := newModel()
	e := newRangeEncoder()

	// Hash-chain match finder over 3-byte prefixes. chain needs no reset:
	// an entry is written (insert) before any search can reach it.
	mt := matchTablesPool.Get().(*matchTables)
	defer matchTablesPool.Put(mt)
	head := mt.head[:]
	for i := range head {
		head[i] = -1
	}
	if cap(mt.chain) < len(src) {
		mt.chain = make([]int32, len(src))
	}
	chain := mt.chain[:len(src)]
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
		head[h] = int32(i)
	}

	prevByte := byte(0)
	lastWasMatch := 0
	pos := 0
	for pos < len(src) {
		bestLen, bestDist := 0, 0
		if pos+minMatch <= len(src) {
			limit := len(src) - pos
			if limit > maxMatch {
				limit = maxMatch
			}
			cand := head[hash3(pos)]
			for depth := 0; cand >= 0 && depth < maxChain; depth++ {
				c := int(cand)
				cand = chain[c]
				// Quick reject: a match that can beat bestLen must at
				// least agree at offset bestLen (bestLen < limit holds
				// here because the search breaks once bestLen == limit).
				if bestLen > 0 && src[c+bestLen] != src[pos+bestLen] {
					continue
				}
				l := 0
				for l < limit && src[c+l] == src[pos+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestDist = l, pos-c
					if l == limit {
						break
					}
				}
			}
		}
		if bestLen >= minMatch {
			e.encodeBit(&m.isMatch[lastWasMatch], 1)
			m.length.encode(e, uint32(bestLen-minMatch))
			slot, footer, fb := distSlot(uint32(bestDist))
			m.slot.encode(e, slot)
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
			m.literals[litContext(prevByte)].encode(e, uint32(b))
			insert(pos)
			prevByte = b
			pos++
			lastWasMatch = 0
		}
	}
	return append(hdr, e.flush()...)
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

	m := newModel()
	d := newRangeDecoder(rest)
	out := make([]byte, 0, min(origLen, reserveRatio*uint64(len(rest))))
	prevByte := byte(0)
	lastWasMatch := 0
	for uint64(len(out)) < origLen {
		if d.err {
			return out, fmt.Errorf("%w: truncated stream", ErrCorrupt)
		}
		if d.decodeBit(&m.isMatch[lastWasMatch]) == 1 {
			length := int(m.length.decode(d)) + minMatch
			slot := m.slot.decode(d)
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
			b := byte(m.literals[litContext(prevByte)].decode(d))
			out = append(out, b)
			prevByte = b
			lastWasMatch = 0
		}
	}
	return out, nil
}
