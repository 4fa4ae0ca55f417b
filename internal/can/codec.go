package can

import (
	"errors"
	"fmt"
)

// This file implements the physical-layer view of a frame that the timing
// and fault models need: the bit sequence on the wire, CRC-15, and bit
// stuffing. The bus simulation uses BitLength for transmission timing; the
// codec round trip is also exercised directly by fault-injection tests
// (single-bit corruption must be caught by the CRC).

// crc15Poly is the CAN CRC polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
const crc15Poly = 0x4599

// CRC15 computes the CAN 15-bit CRC over a bit sequence (booleans, MSB
// first), as specified in ISO 11898-1.
func CRC15(bits []bool) uint16 {
	var crc uint16
	for _, b := range bits {
		bit := uint16(0)
		if b {
			bit = 1
		}
		crcNext := bit ^ (crc >> 14)
		crc = (crc << 1) & 0x7FFF
		if crcNext == 1 {
			crc ^= crc15Poly
		}
	}
	return crc & 0x7FFF
}

// Stuff inserts a complement bit after every run of five identical bits,
// per the CAN bit-stuffing rule. The input covers SOF through the CRC
// sequence; later fields (CRC delimiter, ACK, EOF) are not stuffed.
func Stuff(bits []bool) []bool {
	out := make([]bool, 0, len(bits)+len(bits)/5)
	run := 0
	var last bool
	for i, b := range bits {
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		out = append(out, b)
		last = b
		if run == 5 {
			out = append(out, !b)
			last = !b
			run = 1
		}
	}
	return out
}

// ErrStuffViolation is returned by Unstuff when six identical consecutive
// bits appear in a stuffed region — the on-wire signature of a stuff error.
var ErrStuffViolation = errors.New("can: bit stuffing violation")

// Unstuff removes stuff bits, returning the original sequence. It fails
// with ErrStuffViolation if a run of six identical bits is found.
func Unstuff(bits []bool) ([]bool, error) {
	out := make([]bool, 0, len(bits))
	run := 0
	var last bool
	skip := false
	for i, b := range bits {
		if skip {
			// This is the stuff bit: must be the complement of the run.
			if b == last {
				return nil, ErrStuffViolation
			}
			skip = false
			run = 1
			last = b
			continue
		}
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		if run > 5 {
			return nil, ErrStuffViolation
		}
		out = append(out, b)
		last = b
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// appendBits appends the low n bits of v, MSB first.
func appendBits(dst []bool, v uint64, n int) []bool {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, v>>uint(i)&1 == 1)
	}
	return dst
}

// bitsToUint packs up to 64 bits (MSB first) into an integer.
func bitsToUint(bits []bool) uint64 {
	var v uint64
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v
}

// headerBits returns the frame fields from SOF through the data field —
// the region covered by the CRC and subject to stuffing. Classic CAN only;
// the FD field layout differs but its timing is handled analytically in
// BitLength.
func headerBits(f *Frame) ([]bool, error) {
	if f.FD {
		return nil, errors.New("can: bit-level codec models classic frames only")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bits := make([]bool, 0, 90)
	bits = append(bits, false) // SOF (dominant)
	if !f.Extended {
		bits = appendBits(bits, uint64(f.ID), 11)
		bits = append(bits, f.Remote) // RTR
		bits = append(bits, false)    // IDE = standard
		bits = append(bits, false)    // r0
	} else {
		bits = appendBits(bits, uint64(f.ID>>18), 11) // base ID
		bits = append(bits, true)                     // SRR (recessive)
		bits = append(bits, true)                     // IDE = extended
		bits = appendBits(bits, uint64(f.ID)&0x3FFFF, 18)
		bits = append(bits, f.Remote) // RTR
		bits = append(bits, false)    // r1
		bits = append(bits, false)    // r0
	}
	bits = appendBits(bits, uint64(f.DLC()), 4)
	if !f.Remote {
		for _, b := range f.Data {
			bits = appendBits(bits, uint64(b), 8)
		}
	}
	return bits, nil
}

// Marshal encodes a classic CAN frame into its stuffed on-wire bit
// sequence: SOF..data (stuffed, with CRC included in the stuffed region),
// then CRC delimiter, ACK slot, ACK delimiter and 7 EOF bits.
func Marshal(f *Frame) ([]bool, error) {
	body, err := headerBits(f)
	if err != nil {
		return nil, err
	}
	crc := CRC15(body)
	withCRC := appendBits(append([]bool(nil), body...), uint64(crc), 15)
	wire := Stuff(withCRC)
	wire = append(wire, true)  // CRC delimiter
	wire = append(wire, false) // ACK slot (dominant: acknowledged)
	wire = append(wire, true)  // ACK delimiter
	for i := 0; i < 7; i++ {
		wire = append(wire, true) // EOF
	}
	return wire, nil
}

// Unmarshal decodes a stuffed on-wire bit sequence back into a frame,
// verifying the CRC. It accepts exactly the output format of Marshal.
var (
	ErrTruncated = errors.New("can: truncated frame")
	ErrCRC       = errors.New("can: CRC mismatch")
	ErrForm      = errors.New("can: form error")
	ErrAck       = errors.New("can: ACK error (recessive ACK slot)")
)

func Unmarshal(wire []bool) (*Frame, error) {
	// The trailing 10 bits (delim, ack, delim, 7×EOF) are unstuffed.
	if len(wire) < 10 {
		return nil, ErrTruncated
	}
	tail := wire[len(wire)-10:]
	if !tail[0] || !tail[2] {
		return nil, fmt.Errorf("%w: bad delimiter", ErrForm)
	}
	if tail[1] {
		return nil, ErrAck
	}
	for _, b := range tail[3:] {
		if !b {
			return nil, fmt.Errorf("%w: dominant bit in EOF", ErrForm)
		}
	}
	stuffed := wire[:len(wire)-10]
	raw, err := Unstuff(stuffed)
	if err != nil {
		return nil, err
	}
	if len(raw) < 1+11+1+1+1+4+15 {
		return nil, ErrTruncated
	}
	if raw[0] {
		return nil, fmt.Errorf("%w: recessive SOF", ErrForm)
	}
	pos := 1
	baseID := bitsToUint(raw[pos : pos+11])
	pos += 11
	f := &Frame{}
	rtrOrSRR := raw[pos]
	pos++
	ide := raw[pos]
	pos++
	if !ide {
		f.ID = ID(baseID)
		f.Remote = rtrOrSRR
		pos++ // r0
	} else {
		f.Extended = true
		if len(raw) < pos+18+1+2+4+15 {
			return nil, ErrTruncated
		}
		ext := bitsToUint(raw[pos : pos+18])
		pos += 18
		f.ID = ID(baseID<<18 | ext)
		f.Remote = raw[pos]
		pos++
		pos += 2 // r1, r0
	}
	dlc := int(bitsToUint(raw[pos : pos+4]))
	pos += 4
	dataLen := dlc
	if dataLen > 8 {
		dataLen = 8 // DLC 9-15 means 8 bytes in classic CAN
	}
	if f.Remote {
		dataLen = 0
	}
	if len(raw) < pos+8*dataLen+15 {
		return nil, ErrTruncated
	}
	for i := 0; i < dataLen; i++ {
		f.Data = append(f.Data, byte(bitsToUint(raw[pos:pos+8])))
		pos += 8
	}
	gotCRC := uint16(bitsToUint(raw[pos : pos+15]))
	if want := CRC15(raw[:pos]); gotCRC != want {
		return nil, fmt.Errorf("%w: got %#x want %#x", ErrCRC, gotCRC, want)
	}
	return f, nil
}

// WireLength returns the exact number of bits Marshal would put on the
// wire for a classic frame, plus the 3-bit interframe space.
func WireLength(f *Frame) (int, error) {
	wire, err := Marshal(f)
	if err != nil {
		return 0, err
	}
	return len(wire) + 3, nil
}

// The bus timing hot path counts a classic frame's stuffed bits a byte at
// a time, without materializing them: crc15Table advances the CRC-15
// register by one byte, and stuffTable advances the stuffing state. Both
// are built from the reference CRC15 and Stuff rules; Marshal remains
// the reference encoder, and TestClassicWireBitsMatchesMarshal and
// FuzzClassicWireBits pin classicWireBits to it.
//
// A stuffing state is the last bit on the wire and the length of the run
// of equal bits it ends (1-4; a fifth is always followed by a stuff bit),
// packed as last<<2 | (run-1). A stuffTable entry for (state, byte) is
// the stuff bits the byte adds <<3 | the state after it.
var crc15Table, stuffTable = wireTables()

func wireTables() (crc [256]uint16, stuff [8 << 8]uint8) {
	for b := 0; b < 256; b++ {
		bits := appendBits(nil, uint64(b), 8)
		crc[b] = CRC15(bits)
		for st := 0; st < 8; st++ {
			last, run := st>>2 == 1, st&3+1
			// One opposite bit, then run copies of last: a prefix that
			// leaves Stuff in state st without stuffing.
			in := []bool{!last}
			for i := 0; i < run; i++ {
				in = append(in, last)
			}
			in = append(in, bits...)
			out := Stuff(in)
			end, tail := out[len(out)-1], 1
			for out[len(out)-1-tail] == end {
				tail++
			}
			next := tail - 1
			if end {
				next |= 4
			}
			stuff[st<<8|b] = uint8((len(out)-len(in))<<3 | next)
		}
	}
	return crc, stuff
}

// wireCounter accumulates the CRC-15 and the stuffed length of the
// SOF..CRC region of a classic frame, one byte at a time.
type wireCounter struct {
	crc   uint16
	state uint8 // stuffing state, as in stuffTable
	bits  int
}

// stuff feeds one byte to the stuffing state only.
func (w *wireCounter) stuff(b byte) {
	e := stuffTable[int(w.state)<<8|int(b)]
	w.state = e & 7
	w.bits += 8 + int(e>>3)
}

// crcStuff feeds one byte to the CRC and the stuffing state.
func (w *wireCounter) crcStuff(b byte) {
	w.crc = (w.crc<<8)&0x7FFF ^ crc15Table[byte(w.crc>>7)^b]
	w.stuff(b)
}

// classicWireBits returns exactly what WireLength returns for a valid
// classic frame — stuffed SOF..CRC region, 10 tail bits (CRC delimiter,
// ACK slot, ACK delimiter, 7×EOF) and the 3-bit interframe space — with
// no allocation.
func classicWireBits(f *Frame) (int, error) {
	if f.FD {
		return 0, errors.New("can: bit-level codec models classic frames only")
	}
	if err := f.Validate(); err != nil {
		return 0, err
	}
	// SOF through DLC as one field, SOF (dominant) its top bit. Standard:
	// SOF, ID(11), RTR, IDE=0, r0, DLC(4). Extended: SOF, base ID(11),
	// SRR=1, IDE=1, ID extension(18), RTR, r1, r0, DLC(4).
	hdr, n := uint64(f.ID)<<7|uint64(f.DLC()), 19
	if f.Extended {
		hdr, n = uint64(f.ID>>18)<<27|3<<25|(uint64(f.ID)&0x3FFFF)<<7|uint64(f.DLC()), 39
	}
	if f.Remote {
		hdr |= 1 << 6
	}
	// Lead the header with pad bits up to whole bytes. For the CRC they
	// are zeros, which leave the zeroed register at zero. For stuffing
	// they alternate from the zero state and end recessive, like the idle
	// bus before SOF: they add no stuff bit, and SOF starts a fresh run.
	pad := 8 - n%8
	n += pad
	var w wireCounter
	first := byte(hdr >> uint(n-8))
	w.crc = crc15Table[first]
	w.stuff(first | byte(0x55<<uint(8-pad)))
	for n -= 8; n > 0; n -= 8 {
		w.crcStuff(byte(hdr >> uint(n-8)))
	}
	if !f.Remote {
		for _, b := range f.Data {
			w.crcStuff(b)
		}
	}
	// The CRC sequence is stuffed but not CRC-covered. Its last 7 bits go
	// with one trailing bit opposite to the last of them, which cannot
	// complete a run and so adds itself and no stuff bit.
	crc := w.crc
	w.stuff(byte(crc >> 7))
	w.stuff(byte(crc<<1) | byte(^crc&1))
	return w.bits - pad - 1 + 10 + 3, nil
}

// BitLength estimates on-wire bits for timing purposes, handling both
// classic and FD frames. For classic frames it is exact (same as
// WireLength). For FD frames it uses the standard field sizes with a
// conservative stuffing estimate, returning arbitration-phase and
// data-phase bit counts separately so the bus can apply two bitrates.
func BitLength(f *Frame) (arbBits, dataBits int, err error) {
	if !f.FD {
		n, err := classicWireBits(f)
		return n, 0, err
	}
	if err := f.Validate(); err != nil {
		return 0, 0, err
	}
	// Arbitration phase: SOF + ID (+SRR/IDE for ext) + control up to BRS.
	arb := 1 + 11 + 3
	if f.Extended {
		arb += 2 + 18
	}
	// Data phase (after BRS): ESI + DLC + data + stuff-count + CRC(17/21) +
	// fixed stuff bits. Then back at nominal rate: CRC delim, ACK, EOF, IFS.
	crcLen := 17
	if len(f.Data) > 16 {
		crcLen = 21
	}
	data := 1 + 4 + 8*len(f.Data) + 4 + crcLen
	// Dynamic stuffing applies through the data field (~1 in 5 worst case,
	// ~1 in 8 typical); use the deterministic pessimistic bound /5 so the
	// timing model never underestimates load.
	arb += arb / 5
	data += data / 5
	tail := 1 + 1 + 1 + 7 + 3
	if !f.BRS {
		// Whole frame at nominal rate.
		return arb + data + tail, 0, nil
	}
	return arb + tail, data, nil
}
