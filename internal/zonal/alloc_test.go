package zonal

import (
	"testing"

	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// stubMedium is a do-nothing netif.Medium: it isolates the zonal forward
// path — source-zone rule match, tunnel encapsulation, backbone crossing,
// destination-zone decapsulation and translation — from any real local
// medium's transmit cost, which is what the steady-state allocation pin
// measures.
type stubMedium struct {
	kind  netif.Kind
	ports []*stubPort
}

func (m *stubMedium) Kind() netif.Kind { return m.kind }
func (m *stubMedium) Name() string     { return "stub-" + m.kind.String() }

func (m *stubMedium) Open(name string) (netif.Port, error) {
	p := &stubPort{name: name, kind: m.kind}
	m.ports = append(m.ports, p)
	return p, nil
}

func (m *stubMedium) Tap(netif.TapFunc) {}

type stubPort struct {
	name string
	kind netif.Kind
	recv netif.RecvFunc
	sent int
}

func (p *stubPort) Name() string              { return p.name }
func (p *stubPort) Kind() netif.Kind          { return p.kind }
func (p *stubPort) Send(f *netif.Frame) error { p.sent++; return nil }

func (p *stubPort) OnReceive(fn netif.RecvFunc) { p.recv = fn }

// zonalRig builds two zones over the modelled backbone, each with one
// stub CAN domain, and an allow-everything cross-zone rule set.
func zonalRig(t testing.TB) (k *sim.Kernel, aIn, bIn *stubPort) {
	t.Helper()
	g, k := oneKernel(1, 2*sim.Microsecond)
	f := New(g, 2*sim.Microsecond, ethernet.DefaultLinkBps)
	za, err := f.AddZone("a")
	if err != nil {
		t.Fatal(err)
	}
	zb, err := f.AddZone("b")
	if err != nil {
		t.Fatal(err)
	}
	aM := &stubMedium{kind: netif.CAN}
	bM := &stubMedium{kind: netif.CAN}
	if err := za.AttachDomain("pt", aM); err != nil {
		t.Fatal(err)
	}
	if err := zb.AttachDomain("body", bM); err != nil {
		t.Fatal(err)
	}
	f.SetRules([]*gateway.Rule{
		{Name: "pt-to-body", From: "pt", To: []string{"body"}, IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
		{Name: "body-to-pt", From: "body", To: []string{"pt"}, IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
	})
	return k, aM.ports[0], bM.ports[0]
}

// crossing returns a step that hands f to a zone's local-domain ingress
// and runs the kernel until the frame has crossed the backbone and been
// delivered on the other zone's local domain.
func crossing(t testing.TB, k *sim.Kernel, in *stubPort, f *netif.Frame) func() {
	return func() {
		in.recv(k.Now(), f)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterZoneSteadyStateAllocs pins the whole inter-zone chain — source
// zone ingress, rule match, CAN-to-Ethernet tunnel encapsulation, the
// pooled backbone crossing and its kernel event, destination zone
// decapsulation, CAN delivery — at zero steady-state allocations per
// frame, in both directions. Scratch buffers and message nodes grow
// during warm-up; after that every hop reuses them. CI gates on this
// test.
func TestInterZoneSteadyStateAllocs(t *testing.T) {
	k, aIn, bIn := zonalRig(t)

	fa := netif.Frame{Medium: netif.CAN, ID: 0x100, Priority: 0x100, Payload: make([]byte, 8)}
	fb := netif.Frame{Medium: netif.CAN, ID: 0x2A0, Priority: 0x2A0, Payload: make([]byte, 6)}
	aToB := crossing(t, k, aIn, &fa)
	bToA := crossing(t, k, bIn, &fb)

	for i := 0; i < 16; i++ {
		aToB()
		bToA()
	}
	before := bIn.sent

	if n := testing.AllocsPerRun(1000, aToB); n != 0 {
		t.Fatalf("zone a -> zone b inter-zone forward allocates %.1f/frame, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, bToA); n != 0 {
		t.Fatalf("zone b -> zone a inter-zone forward allocates %.1f/frame, want 0", n)
	}
	if bIn.sent <= before {
		t.Fatal("frames were not delivered across the zone boundary")
	}
}

// BenchmarkZonalInterZone measures the full two-gateway inter-zone chain
// over stub local media and the modelled backbone, one crossing per op.
// CI runs it with the same 0-allocs/op gate as
// BenchmarkGatewayCrossMedium.
func BenchmarkZonalInterZone(b *testing.B) {
	k, aIn, _ := zonalRig(b)
	f := netif.Frame{Medium: netif.CAN, ID: 0x100, Priority: 0x100, Payload: make([]byte, 8)}
	aToB := crossing(b, k, aIn, &f)
	aToB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aToB()
	}
}
