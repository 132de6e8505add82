package lzr_test

import (
	"encoding/binary"
	"fmt"

	"semholo/internal/compress/lzr"
)

// This file keeps the coder as it was before the model became one flat
// array and the bit trees kept the coder state in locals: a pointer per
// bit tree, a branch per coded bit, a hash-head table refilled with −1
// on every call and an output grown by append. Compress must produce its
// streams byte for byte, and Decompress must accept exactly the streams
// it accepts, decoding them to the same bytes, except that a stream that
// runs out while its last symbol is decoded is corrupt to Decompress and
// accepted here.

const (
	refProbBits    = 11
	refProbInit    = 1 << (refProbBits - 1)
	refMoveBits    = 5
	refTopValue    = 1 << 24
	refMinMatch    = 3
	refMaxMatch    = refMinMatch + 255
	refHashBits    = 16
	refMaxChain    = 64
	refNumSlotBits = 6
	refReserve     = 64
)

var refMagic = [4]byte{'L', 'Z', 'R', '1'}

type refProb = uint16

type refRangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func (e *refRangeEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, temp+byte(e.low>>32))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refRangeEncoder) encodeBit(p *refProb, bit int) {
	bound := (e.rng >> refProbBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<refProbBits - *p) >> refMoveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> refMoveBits
	}
	for e.rng < refTopValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

func (e *refRangeEncoder) encodeDirect(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		e.rng >>= 1
		if (v>>uint(i))&1 != 0 {
			e.low += uint64(e.rng)
		}
		if e.rng < refTopValue {
			e.shiftLow()
			e.rng <<= 8
		}
	}
}

func (e *refRangeEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

type refRangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	err  bool
}

func newRefRangeDecoder(in []byte) *refRangeDecoder {
	d := &refRangeDecoder{rng: 0xFFFFFFFF, in: in}
	d.next()
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *refRangeDecoder) next() byte {
	if d.pos >= len(d.in) {
		d.err = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *refRangeDecoder) decodeBit(p *refProb) int {
	bound := (d.rng >> refProbBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<refProbBits - *p) >> refMoveBits
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> refMoveBits
		bit = 1
	}
	for d.rng < refTopValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bit
}

func (d *refRangeDecoder) decodeDirect(n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		d.rng >>= 1
		d.code -= d.rng
		t := 0 - (d.code >> 31)
		d.code += d.rng & t
		v = v<<1 | (t + 1)
		if d.rng < refTopValue {
			d.rng <<= 8
			d.code = d.code<<8 | uint32(d.next())
		}
	}
	return v
}

type refBitTree struct {
	probs []refProb
	nbit  int
}

func newRefBitTree(nbit int) *refBitTree {
	t := &refBitTree{probs: make([]refProb, 1<<nbit), nbit: nbit}
	for i := range t.probs {
		t.probs[i] = refProbInit
	}
	return t
}

func (t *refBitTree) encode(e *refRangeEncoder, sym uint32) {
	node := uint32(1)
	for i := t.nbit - 1; i >= 0; i-- {
		bit := int((sym >> uint(i)) & 1)
		e.encodeBit(&t.probs[node], bit)
		node = node<<1 | uint32(bit)
	}
}

func (t *refBitTree) decode(d *refRangeDecoder) uint32 {
	node := uint32(1)
	for i := 0; i < t.nbit; i++ {
		node = node<<1 | uint32(d.decodeBit(&t.probs[node]))
	}
	return node - 1<<t.nbit
}

type refModel struct {
	isMatch  [2]refProb
	literals []*refBitTree
	length   *refBitTree
	slot     *refBitTree
}

func newRefModel() *refModel {
	m := &refModel{
		isMatch:  [2]refProb{refProbInit, refProbInit},
		literals: make([]*refBitTree, 8),
		length:   newRefBitTree(8),
		slot:     newRefBitTree(refNumSlotBits),
	}
	for i := range m.literals {
		m.literals[i] = newRefBitTree(8)
	}
	return m
}

func refDistSlot(dist uint32) (slot uint32, footer uint32, footerBits int) {
	d := dist - 1
	if d < 4 {
		return d, 0, 0
	}
	n := 31
	for d>>uint(n) == 0 {
		n--
	}
	slot = uint32(n<<1) | (d >> uint(n-1) & 1)
	footerBits = n - 1
	footer = d & (1<<uint(footerBits) - 1)
	return slot, footer, footerBits
}

func refDistFromSlot(slot uint32, footer uint32) uint32 {
	if slot < 4 {
		return slot + 1
	}
	n := int(slot >> 1)
	base := (2 | (slot & 1)) << uint(n-1)
	return base + footer + 1
}

// compressReference is the reference Compress.
func compressReference(src []byte) []byte {
	hdr := make([]byte, 4, 4+binary.MaxVarintLen64)
	copy(hdr, refMagic[:])
	hdr = binary.AppendUvarint(hdr, uint64(len(src)))
	if len(src) == 0 {
		return hdr
	}

	m := newRefModel()
	e := &refRangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1}
	head := make([]int32, 1<<refHashBits)
	for i := range head {
		head[i] = -1
	}
	chain := make([]int32, len(src))
	hash3 := func(i int) uint32 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return (v * 2654435761) >> (32 - refHashBits)
	}
	insert := func(i int) {
		if i+refMinMatch > len(src) {
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
		if pos+refMinMatch <= len(src) {
			limit := min(len(src)-pos, refMaxMatch)
			cand := head[hash3(pos)]
			for depth := 0; cand >= 0 && depth < refMaxChain; depth++ {
				c := int(cand)
				cand = chain[c]
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
		if bestLen >= refMinMatch {
			e.encodeBit(&m.isMatch[lastWasMatch], 1)
			m.length.encode(e, uint32(bestLen-refMinMatch))
			slot, footer, fb := refDistSlot(uint32(bestDist))
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
			m.literals[prevByte>>5].encode(e, uint32(b))
			insert(pos)
			prevByte = b
			pos++
			lastWasMatch = 0
		}
	}
	return append(hdr, e.flush()...)
}

// decompressReference is the reference Decompress. underran reports
// whether its input ran out on the way to an accepted result: the one
// case where Decompress deliberately differs.
func decompressReference(data []byte) (out []byte, underran bool, err error) {
	if len(data) < 4 || data[0] != refMagic[0] || data[1] != refMagic[1] || data[2] != refMagic[2] || data[3] != refMagic[3] {
		return nil, false, fmt.Errorf("%w: bad magic", lzr.ErrCorrupt)
	}
	rest := data[4:]
	origLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, false, fmt.Errorf("%w: bad length header", lzr.ErrCorrupt)
	}
	if origLen > 1<<32 {
		return nil, false, fmt.Errorf("%w: implausible length %d", lzr.ErrCorrupt, origLen)
	}
	rest = rest[n:]
	if origLen == 0 {
		return []byte{}, false, nil
	}

	m := newRefModel()
	d := newRefRangeDecoder(rest)
	out = make([]byte, 0, min(origLen, refReserve*uint64(len(rest))))
	prevByte := byte(0)
	lastWasMatch := 0
	for uint64(len(out)) < origLen {
		if d.err {
			return nil, false, fmt.Errorf("%w: truncated stream", lzr.ErrCorrupt)
		}
		if d.decodeBit(&m.isMatch[lastWasMatch]) == 1 {
			length := int(m.length.decode(d)) + refMinMatch
			slot := m.slot.decode(d)
			var footer uint32
			if slot >= 4 {
				footer = d.decodeDirect(int(slot>>1) - 1)
			}
			dist := int(refDistFromSlot(slot, footer))
			if dist <= 0 || dist > len(out) {
				return nil, false, fmt.Errorf("%w: distance %d beyond window %d", lzr.ErrCorrupt, dist, len(out))
			}
			if uint64(len(out)+length) > origLen {
				return nil, false, fmt.Errorf("%w: match overruns declared length", lzr.ErrCorrupt)
			}
			start := len(out) - dist
			for i := 0; i < length; i++ {
				out = append(out, out[start+i])
			}
			prevByte = out[len(out)-1]
			lastWasMatch = 1
		} else {
			b := byte(m.literals[prevByte>>5].decode(d))
			out = append(out, b)
			prevByte = b
			lastWasMatch = 0
		}
	}
	return out, d.err, nil
}
