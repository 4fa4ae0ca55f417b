package netif

import (
	"errors"
	"sort"
	"testing"

	"autosec/internal/sim"
)

func TestKindAndSelector(t *testing.T) {
	names := map[Kind]string{CAN: "can", LIN: "lin", FlexRay: "flexray", Ethernet: "ethernet"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	var any Selector
	for k := range names {
		if !any.Matches(k) {
			t.Fatalf("zero selector must match %s", k)
		}
	}
	eth := Only(Ethernet)
	if !eth.Matches(Ethernet) || eth.Matches(CAN) || eth.Matches(LIN) {
		t.Fatal("Only(Ethernet) selector wrong")
	}
	both := Only(CAN) | Only(FlexRay)
	if !both.Matches(CAN) || !both.Matches(FlexRay) || both.Matches(Ethernet) {
		t.Fatal("combined selector wrong")
	}
}

// CAN keys must sort exactly like their bare identifiers, because the
// detectors' sorted-key sweeps replaced maps keyed by can.ID and the
// alert order is golden-tested.
func TestKeyOrderingAndRoundTrip(t *testing.T) {
	ids := []uint32{0x7DF, 0x0C0, 0x1FFFFFFF, 0, 0x155}
	keys := make([]Key, len(ids))
	for i, id := range ids {
		keys[i] = MakeKey(CAN, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := range keys {
		if keys[i].ID() != ids[i] || keys[i].Kind() != CAN {
			t.Fatalf("key %d: got (%s, %#x), want (can, %#x)", i, keys[i].Kind(), keys[i].ID(), ids[i])
		}
	}
	k := MakeKey(FlexRay, 62)
	if k.Kind() != FlexRay || k.ID() != 62 {
		t.Fatalf("MakeKey round trip: (%s, %d)", k.Kind(), k.ID())
	}
	f := Frame{Medium: FlexRay, ID: 62}
	if f.Key() != k {
		t.Fatal("Frame.Key disagrees with MakeKey")
	}
}

func TestFrameCloneCopyEqual(t *testing.T) {
	f := Frame{Medium: LIN, ID: 0x21, Priority: 0x21, Sender: "door", Payload: []byte{1, 2, 3}}
	c := f.Clone()
	if !f.Equal(&c) {
		t.Fatal("clone not equal")
	}
	c.Payload[0] = 9
	if f.Payload[0] == 9 {
		t.Fatal("clone shares payload storage")
	}
	var dst Frame
	dst.Payload = make([]byte, 0, 16)
	buf := dst.Payload
	f.CopyInto(&dst)
	if !f.Equal(&dst) {
		t.Fatal("CopyInto not equal")
	}
	if &buf[:1][0] != &dst.Payload[0] {
		t.Fatal("CopyInto did not reuse the destination buffer")
	}
	g := f.Clone()
	g.Aux = 7
	if f.Equal(&g) {
		t.Fatal("Equal ignores Aux")
	}
}

func TestTranslateAcrossMedia(t *testing.T) {
	var out Frame
	var scratch []byte

	// Same kind: pure view copy.
	src := Frame{Medium: CAN, ID: 0x100, Priority: 0x100, Payload: []byte{1, 2}}
	if err := Translate(&out, &src, CAN, &scratch); err != nil {
		t.Fatal(err)
	}
	if &out.Payload[0] != &src.Payload[0] {
		t.Fatal("same-kind translate must alias the payload")
	}

	// X -> Ethernet tunnels; Ethernet tunnel -> X restores.
	if err := Translate(&out, &src, Ethernet, &scratch); err != nil {
		t.Fatal(err)
	}
	if out.Medium != Ethernet || out.ID != TunnelEtherType || !IsTunnel(&out) {
		t.Fatalf("CAN->Ethernet should tunnel, got %+v", out)
	}
	var back Frame
	if err := Translate(&back, &out, CAN, &scratch); err != nil {
		t.Fatal(err)
	}
	if back.Medium != CAN || back.ID != src.ID || string(back.Payload) != string(src.Payload) {
		t.Fatalf("tunnel round trip lost state: %+v", back)
	}
	// A CAN tunnel does not decapsulate onto LIN.
	if err := Translate(&back, &out, LIN, &scratch); !errors.Is(err, ErrUntranslatable) {
		t.Fatalf("CAN tunnel onto LIN: err=%v", err)
	}

	// Direct cross-medium: capacity and identifier-width checks.
	big := Frame{Medium: Ethernet, ID: 0x88B6, Payload: make([]byte, 100)}
	if err := Translate(&out, &big, CAN, &scratch); !errors.Is(err, ErrUntranslatable) {
		t.Fatalf("100-byte payload onto classic CAN: err=%v", err)
	}
	odd := Frame{Medium: CAN, ID: 0x1A0, Payload: []byte{1, 2, 3}}
	if err := Translate(&out, &odd, FlexRay, &scratch); err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 4 || out.Payload[3] != 0 {
		t.Fatalf("odd payload onto FlexRay must zero-pad to even: % X", out.Payload)
	}
	wide := Frame{Medium: CAN, ID: 0x1FFFF, Flags: FlagExtended, Payload: []byte{1}}
	if err := Translate(&out, &wide, LIN, &scratch); err != nil {
		t.Fatal(err)
	}
	if out.ID != 0x1FFFF&0x3F {
		t.Fatalf("LIN translation must mask to 6-bit IDs, got %#x", out.ID)
	}
}

func TestTraceKeys(t *testing.T) {
	var tr Trace
	add := func(at sim.Time, m Kind, id uint32) {
		tr.Records = append(tr.Records, Record{At: at, Frame: Frame{Medium: m, ID: id}})
	}
	add(10, CAN, 0x100)
	add(20, LIN, 0x21)
	add(30, CAN, 0x100)
	add(60, CAN, 0x100)
	keys := tr.Keys()
	if len(keys) != 2 || keys[0] != MakeKey(CAN, 0x100) || keys[1] != MakeKey(LIN, 0x21) {
		t.Fatalf("keys = %v", keys)
	}
}
