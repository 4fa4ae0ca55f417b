package can

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCRC15KnownBehaviour(t *testing.T) {
	// CRC of the empty sequence is 0.
	if got := CRC15(nil); got != 0 {
		t.Fatalf("CRC15(nil)=%#x", got)
	}
	// A single dominant (0) bit leaves the register at 0.
	if got := CRC15([]bool{false}); got != 0 {
		t.Fatalf("CRC15([0])=%#x", got)
	}
	// A single recessive (1) bit loads the polynomial.
	if got := CRC15([]bool{true}); got != crc15Poly {
		t.Fatalf("CRC15([1])=%#x, want %#x", got, crc15Poly)
	}
}

func TestCRC15DetectsSingleBitFlips(t *testing.T) {
	bits := make([]bool, 83)
	s := newTestBits(bits)
	base := CRC15(s)
	for i := range s {
		s[i] = !s[i]
		if CRC15(s) == base {
			t.Fatalf("single-bit flip at %d not detected", i)
		}
		s[i] = !s[i]
	}
}

func newTestBits(bits []bool) []bool {
	v := uint64(0x9e3779b97f4a7c15)
	for i := range bits {
		v = v*6364136223846793005 + 1442695040888963407
		bits[i] = v>>63 == 1
	}
	return bits
}

func TestStuffInsertsAfterFiveEqualBits(t *testing.T) {
	in := []bool{true, true, true, true, true, true}
	out := Stuff(in)
	want := []bool{true, true, true, true, true, false, true}
	if len(out) != len(want) {
		t.Fatalf("len=%d, want %d (%v)", len(out), len(want), out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d]=%v, want %v", i, out[i], want[i])
		}
	}
}

func TestStuffUnstuffRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := make([]bool, 0, len(data)*8)
		for _, b := range data {
			bits = appendBits(bits, uint64(b), 8)
		}
		back, err := Unstuff(Stuff(bits))
		if err != nil {
			return false
		}
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnstuffRejectsSixEqualBits(t *testing.T) {
	in := []bool{true, true, true, true, true, true}
	if _, err := Unstuff(in); !errors.Is(err, ErrStuffViolation) {
		t.Fatalf("err=%v, want ErrStuffViolation", err)
	}
}

func TestStuffedOutputNeverHasSixEqualBits(t *testing.T) {
	f := func(data []byte) bool {
		bits := make([]bool, 0, len(data)*8)
		for _, b := range data {
			bits = appendBits(bits, uint64(b), 8)
		}
		out := Stuff(bits)
		run := 0
		var last bool
		for i, b := range out {
			if i > 0 && b == last {
				run++
			} else {
				run = 1
			}
			if run > 5 {
				return false
			}
			last = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalUnmarshalStandard(t *testing.T) {
	f := Frame{ID: 0x123, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	wire, err := Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&f) {
		t.Fatalf("round trip: got %v, want %v", got, &f)
	}
}

func TestMarshalUnmarshalExtended(t *testing.T) {
	f := Frame{ID: 0x1ABCDE01, Extended: true, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	wire, err := Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&f) {
		t.Fatalf("round trip: got %v, want %v", got, &f)
	}
}

func TestMarshalUnmarshalRemote(t *testing.T) {
	f := Frame{ID: 0x7FF, Remote: true}
	wire, err := Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Remote || got.ID != 0x7FF {
		t.Fatalf("round trip: got %v", got)
	}
}

// Property: marshal/unmarshal round-trips arbitrary valid frames.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(rawID uint32, ext bool, data []byte) bool {
		fr := Frame{Extended: ext}
		if ext {
			fr.ID = ID(rawID) & MaxExtendedID
		} else {
			fr.ID = ID(rawID) & MaxStandardID
		}
		if len(data) > 8 {
			data = data[:8]
		}
		fr.Data = data
		wire, err := Marshal(&fr)
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		return got.Equal(&fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single corrupted wire bit in the stuffed region is
// detected (stuff violation, CRC error, or form error) — never silently
// decoded as a different frame.
func TestSingleBitCorruptionDetected(t *testing.T) {
	orig := Frame{ID: 0x2A5, Data: []byte{0x11, 0x22, 0x33}}
	wire, err := Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = !wire[i]
		got, err := Unmarshal(wire)
		if err == nil && got.Equal(&orig) {
			t.Fatalf("flip at %d decoded as the original frame", i)
		}
		// Note: a flip may legitimately decode into a *detectably*
		// different frame only if CRC still matched — that must not happen
		// for a single flip given CRC-15's Hamming distance.
		if err == nil {
			t.Fatalf("flip at %d silently accepted as %v", i, got)
		}
		wire[i] = !wire[i]
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal(make([]bool, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

func TestWireLengthBounds(t *testing.T) {
	// A standard frame with 0 data bytes: 44 fixed bits + stuffing + 3 IFS.
	f := Frame{ID: 0x000}
	n, err := WireLength(&f)
	if err != nil {
		t.Fatal(err)
	}
	if n < 47 || n > 60 {
		t.Fatalf("empty frame wire length %d out of plausible range", n)
	}
	// 8 data bytes: 108 fixed bits + stuffing + IFS, max ~135.
	f = Frame{ID: 0x555, Data: make([]byte, 8)}
	n, err = WireLength(&f)
	if err != nil {
		t.Fatal(err)
	}
	if n < 111 || n > 140 {
		t.Fatalf("full frame wire length %d out of plausible range", n)
	}
}

func TestBitLengthFD(t *testing.T) {
	f := Frame{ID: 0x100, FD: true, BRS: true, Data: make([]byte, 64)}
	arb, data, err := BitLength(&f)
	if err != nil {
		t.Fatal(err)
	}
	if arb <= 0 || data <= 0 {
		t.Fatalf("FD BRS frame: arb=%d data=%d", arb, data)
	}
	if data < 64*8 {
		t.Fatalf("data phase %d bits < payload bits", data)
	}
	// Without BRS everything is in the nominal phase.
	f.BRS = false
	arb2, data2, err := BitLength(&f)
	if err != nil {
		t.Fatal(err)
	}
	if data2 != 0 || arb2 < arb+data {
		t.Fatalf("non-BRS: arb=%d data=%d", arb2, data2)
	}
}

func TestHeaderBitsRejectsFD(t *testing.T) {
	f := Frame{ID: 1, FD: true}
	if _, err := Marshal(&f); err == nil {
		t.Fatal("Marshal accepted an FD frame")
	}
}

// checkWireBits asserts that the table-driven counter agrees with the
// reference Marshal-based WireLength on one frame, errors included.
func checkWireBits(t *testing.T, fr Frame) {
	t.Helper()
	want, wantErr := WireLength(&fr)
	got, err := classicWireBits(&fr)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("classicWireBits(%v) error %v, WireLength error %v", &fr, err, wantErr)
	}
	if got != want {
		t.Fatalf("classicWireBits(%v)=%d, WireLength=%d", &fr, got, want)
	}
}

// wirePatterns are payload bytes that stress stuffing: constant bytes,
// alternating bits, and runs of 4, 5 and 6 equal bits laid so that runs
// cross byte boundaries, in both polarities.
func wirePatterns() [][8]byte {
	out := [][8]byte{}
	for _, b := range []byte{0x00, 0xFF, 0x55, 0xAA} {
		out = append(out, [8]byte{b, b, b, b, b, b, b, b})
	}
	for _, run := range []int{4, 5, 6} {
		for _, inv := range []bool{false, true} {
			var p [8]byte
			for i := 0; i < 64; i++ {
				if ((i+2)/run%2 == 0) != inv {
					p[i/8] |= 0x80 >> uint(i%8)
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// Property: the table-driven bit counter used by the bus timing hot path
// agrees exactly with the reference Marshal-based WireLength — for every
// standard ID × RTR × DLC 0-8 under the stuffing-stress payloads, and
// for random standard and extended frames — and allocates nothing.
func TestClassicWireBitsMatchesMarshal(t *testing.T) {
	patterns := wirePatterns()
	for id := ID(0); id <= MaxStandardID; id++ {
		for dlc := 0; dlc <= 8; dlc++ {
			// A remote frame's DLC is its data length; no data goes on the wire.
			checkWireBits(t, Frame{ID: id, Remote: true, Data: make([]byte, dlc)})
			for i := range patterns {
				checkWireBits(t, Frame{ID: id, Data: patterns[i][:dlc]})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		fr := Frame{Extended: rng.Intn(2) == 0, Remote: rng.Intn(8) == 0}
		fr.ID = ID(rng.Uint32()) & MaxStandardID
		if fr.Extended {
			fr.ID = ID(rng.Uint32()) & MaxExtendedID
		}
		fr.Data = make([]byte, rng.Intn(9))
		for j := range fr.Data {
			fr.Data[j] = byte(rng.Intn(256))
			if rng.Intn(2) == 0 { // long runs are where stuffing happens
				fr.Data[j] = []byte{0x00, 0xFF, 0x0F, 0xF0, 0x1F, 0xE0}[rng.Intn(6)]
			}
		}
		checkWireBits(t, fr)
	}
	checkWireBits(t, Frame{ID: 0x1FFFFFFF, Extended: true, Data: []byte{0xAA, 0x55}})
	checkWireBits(t, Frame{ID: 0x800, Data: []byte{1}})       // ID out of range
	checkWireBits(t, Frame{ID: 1, Data: make([]byte, 9)})     // too long
	checkWireBits(t, Frame{ID: 0, Extended: true, Data: nil}) // all-dominant extended header

	fr := Frame{ID: 0x2A5, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := classicWireBits(&fr); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("classicWireBits allocates %v per call, want 0", allocs)
	}
	if _, err := classicWireBits(&Frame{ID: 1, FD: true}); err == nil {
		t.Fatal("classicWireBits accepted an FD frame")
	}
}
