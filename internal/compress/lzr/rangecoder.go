// Package lzr implements an LZMA-family lossless codec: LZ77 matching
// over the full input window combined with an adaptive binary range
// coder. It is the stand-in for the LZMA compressor the paper applies to
// keypoint semantics (§4.2); the probability-model layout follows the
// classic LZMA design (11-bit probabilities, bit trees, position slots)
// in simplified form.
package lzr

const (
	probBits = 11
	probInit = 1 << (probBits - 1) // 1024 = p(0) = 0.5
	moveBits = 5
	topValue = 1 << 24
)

// prob is an adaptive probability of the next bit being 0, in units of
// 2^−11. Starting from probInit, adapt keeps it in [31, 2017]
// (TestProbInvariant), so a coded bit leaves rng ≥ (2^24 >> 11)·31 ≥
// 2^16 and a single 8-bit normalisation step restores rng ≥ topValue.
type prob = uint16

// adapt returns p after coding a bit, given m: all ones for a 0 bit,
// zero for a 1 bit. Both updates are computed and m selects one, so the
// coded bit costs no branch.
func adapt(p, m uint32) uint32 {
	p0 := p + (1<<probBits-p)>>moveBits
	p1 := p - p>>moveBits
	return p1 ^ (p0^p1)&m
}

// rangeEncoder is a carry-propagating binary range encoder (LZMA style).
// Its coding methods load low and rng into locals for a whole symbol and
// store them back once.
type rangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// init resets e to write after the bytes already in out.
func (e *rangeEncoder) init(out []byte) {
	*e = rangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: out}
}

// shiftLow moves the top byte of low into the pending run (the cached
// byte and the 0xFF bytes a carry may still bump), writing the run out
// once no carry can reach it, and returns low shifted.
func (e *rangeEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		e.out = append(e.out, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache = byte(low >> 24)
		e.cacheSize = 0
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// encodeBit codes one bit (0 or 1) at adaptive probability *p.
func (e *rangeEncoder) encodeBit(p *prob, bit uint32) {
	m := bit - 1 // all ones for a 0 bit
	pv := uint32(*p)
	bound := (e.rng >> probBits) * pv
	e.low += uint64(bound &^ m)
	e.rng = bound&m | (e.rng-bound)&^m
	*p = prob(adapt(pv, m))
	if e.rng < topValue {
		e.low = e.shiftLow(e.low)
		e.rng <<= 8
	}
}

// encodeTree codes the nbit-wide symbol sym, MSB first, through the bit
// tree probs (node 1 is the root; node n's children are 2n and 2n+1).
func (e *rangeEncoder) encodeTree(probs []prob, nbit int, sym uint32) {
	low, rng := e.low, e.rng
	node := uint32(1)
	for i := nbit - 1; i >= 0; i-- {
		bit := sym >> uint(i) & 1
		m := bit - 1
		p := uint32(probs[node])
		bound := (rng >> probBits) * p
		low += uint64(bound &^ m)
		rng = bound&m | (rng-bound)&^m
		probs[node] = prob(adapt(p, m))
		node = node<<1 | bit
		if rng < topValue {
			low = e.shiftLow(low)
			rng <<= 8
		}
	}
	e.low, e.rng = low, rng
}

// encodeDirect encodes n bits of v (MSB first) at fixed probability ½.
func (e *rangeEncoder) encodeDirect(v uint32, n int) {
	low, rng := e.low, e.rng
	for i := n - 1; i >= 0; i-- {
		rng >>= 1
		low += uint64(rng & -(v >> uint(i) & 1))
		if rng < topValue {
			low = e.shiftLow(low)
			rng <<= 8
		}
	}
	e.low, e.rng = low, rng
}

// flush writes out what low still holds.
func (e *rangeEncoder) flush() {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
}

// rangeDecoder mirrors rangeEncoder. It normalises in lock-step with the
// encoder, so it reads exactly the bytes the encoder wrote.
type rangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	err  bool // set on input underrun; surfaced by the caller
}

func (d *rangeDecoder) init(in []byte) {
	*d = rangeDecoder{rng: 0xFFFFFFFF, in: in}
	d.next() // first byte emitted by the encoder is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | d.next()
	}
}

func (d *rangeDecoder) next() uint32 {
	if d.pos >= len(d.in) {
		d.err = true
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return uint32(b)
}

// zeroMask returns all ones when code < bound (a 0 bit), else zero.
func zeroMask(code, bound uint32) uint32 {
	return uint32((uint64(code) - uint64(bound)) >> 32)
}

// decodeBit decodes one bit at adaptive probability *p.
func (d *rangeDecoder) decodeBit(p *prob) uint32 {
	pv := uint32(*p)
	bound := (d.rng >> probBits) * pv
	m := zeroMask(d.code, bound)
	d.code -= bound &^ m
	d.rng = bound&m | (d.rng-bound)&^m
	*p = prob(adapt(pv, m))
	if d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | d.next()
	}
	return m + 1
}

// decodeTree decodes an nbit-wide symbol through the bit tree probs.
func (d *rangeDecoder) decodeTree(probs []prob, nbit int) uint32 {
	code, rng := d.code, d.rng
	node := uint32(1)
	for i := 0; i < nbit; i++ {
		p := uint32(probs[node])
		bound := (rng >> probBits) * p
		m := zeroMask(code, bound)
		code -= bound &^ m
		rng = bound&m | (rng-bound)&^m
		probs[node] = prob(adapt(p, m))
		node = node<<1 | (m + 1)
		if rng < topValue {
			rng <<= 8
			code = code<<8 | d.next()
		}
	}
	d.code, d.rng = code, rng
	return node - 1<<nbit
}

func (d *rangeDecoder) decodeDirect(n int) uint32 {
	code, rng := d.code, d.rng
	var v uint32
	for i := 0; i < n; i++ {
		rng >>= 1
		code -= rng
		t := 0 - (code >> 31) // all-ones when code borrowed
		code += rng & t
		v = v<<1 | (t + 1)
		if rng < topValue {
			rng <<= 8
			code = code<<8 | d.next()
		}
	}
	d.code, d.rng = code, rng
	return v
}
