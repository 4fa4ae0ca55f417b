package zonal

import (
	"fmt"
	"testing"

	"autosec/internal/can"
	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// oneKernel returns a one-member kernel group whose lookahead is the
// backbone's minimum crossing at hop, and that member's kernel — the
// setup every fabric test that runs all zones on one kernel shares.
func oneKernel(seed uint64, hop sim.Duration) (*sim.KernelGroup, *sim.Kernel) {
	g := sim.NewKernelGroup(seed, ethernet.TunnelLookahead(hop, ethernet.DefaultLinkBps), 1)
	return g, g.Kernel(0)
}

// rig2 builds the canonical two-zone fabric: zone a owns the powertrain
// CAN bus, zone b owns the body CAN bus, bridged by an Ethernet backbone.
func rig2(t testing.TB) (k *sim.Kernel, f *Fabric, pt, body *can.Bus) {
	t.Helper()
	g, k := oneKernel(1, 2*sim.Microsecond)
	f = New(g, 2*sim.Microsecond, ethernet.DefaultLinkBps)
	za, err := f.AddZone("a")
	if err != nil {
		t.Fatal(err)
	}
	zb, err := f.AddZone("b")
	if err != nil {
		t.Fatal(err)
	}
	pt = can.NewBus(k, "powertrain", 500_000)
	body = can.NewBus(k, "body", 500_000)
	if err := za.AttachDomain("powertrain", can.Netif(pt)); err != nil {
		t.Fatal(err)
	}
	if err := zb.AttachDomain("body", can.Netif(body)); err != nil {
		t.Fatal(err)
	}
	return k, f, pt, body
}

func ruleSig(rs []*gateway.Rule) []string {
	var out []string
	for _, r := range rs {
		out = append(out, fmt.Sprintf("%s from=%s to=%v act=%v rate=%g", r.Name, r.From, r.To, r.Action, r.RatePerSec))
	}
	return out
}

func TestCompileSpecificSourceRule(t *testing.T) {
	_, f, _, _ := rig2(t)
	f.SetRules([]*gateway.Rule{{
		Name: "body-to-pt", From: "body", To: []string{"powertrain"},
		IDLo: 0x100, IDHi: 0x1FF, Action: gateway.Allow, RatePerSec: 50,
	}})

	za, _ := f.ZoneByName("a")
	zb, _ := f.ZoneByName("b")

	// Source zone b: egress shard pointing at the backbone, rate limit kept.
	got := ruleSig(zb.GW.Rules())
	want := []string{"body-to-pt from=body to=[backbone] act=allow rate=50"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("zone b rules = %v, want %v", got, want)
	}
	// Destination zone a: ingress shard, local delivery only, no rate limit.
	got = ruleSig(za.GW.Rules())
	want = []string{"body-to-pt@in from=backbone to=[powertrain] act=allow rate=0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("zone a rules = %v, want %v", got, want)
	}
}

func TestCompileWildcardAndDeny(t *testing.T) {
	_, f, _, _ := rig2(t)
	f.SetRules([]*gateway.Rule{
		{Name: "diag-deny", From: "*", IDLo: 0x700, IDHi: 0x7FF, Action: gateway.Deny},
		{Name: "open", From: "*", IDLo: 0, IDHi: 0x6FF, Action: gateway.Allow},
	})
	za, _ := f.ZoneByName("a")
	got := ruleSig(za.GW.Rules())
	// Wildcards expand per local source plus one backbone-ingress shard,
	// preserving logical order (deny before allow).
	want := []string{
		"diag-deny from=powertrain to=[] act=deny rate=0",
		"diag-deny@in from=backbone to=[] act=deny rate=0",
		"open from=powertrain to=[] act=allow rate=0",
		"open@in from=backbone to=[] act=allow rate=0",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("zone a rules = %v, want %v", got, want)
	}
}

func TestCompileUnreachableDestKeepsSlot(t *testing.T) {
	_, f, _, _ := rig2(t)
	f.SetRules([]*gateway.Rule{
		// Matches 0x100..0x1FF but only delivers to body; zone a's ingress
		// shard must still claim the first-match slot so the broader rule
		// below cannot deliver these IDs to powertrain.
		{Name: "narrow", From: "body", To: []string{"ghost"}, IDLo: 0x100, IDHi: 0x1FF, Action: gateway.Allow},
		{Name: "wide", From: "body", To: []string{"powertrain"}, IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
	})
	za, _ := f.ZoneByName("a")
	rs := za.GW.Rules()
	if len(rs) != 2 {
		t.Fatalf("zone a has %d rules, want 2: %v", len(rs), ruleSig(rs))
	}
	if rs[0].Name != "narrow@in" || len(rs[0].To) != 1 || rs[0].To[0] != noneDomain {
		t.Fatalf("first shard = %v, want narrow@in with sentinel dest", ruleSig(rs[:1]))
	}
	zb, _ := f.ZoneByName("b")
	// Source side: "ghost" is unknown everywhere, so the narrow egress
	// shard keeps its slot with the sentinel too.
	rsb := zb.GW.Rules()
	if rsb[0].Name != "narrow" || len(rsb[0].To) != 1 || rsb[0].To[0] != noneDomain {
		t.Fatalf("zone b first shard = %v, want narrow with sentinel dest", ruleSig(rsb[:1]))
	}
}

func TestCrossZoneForwardOverBackbone(t *testing.T) {
	k, f, pt, body := rig2(t)
	f.SetRules([]*gateway.Rule{{
		Name: "body-to-pt", From: "body", To: []string{"powertrain"},
		IDLo: 0x100, IDHi: 0x1FF, Action: gateway.Allow,
	}})

	rx := can.NewController("ecu-pt")
	pt.Attach(rx)
	var got []can.Frame
	rx.OnReceive(func(at sim.Time, fr *can.Frame, _ *can.Controller) {
		got = append(got, can.Frame{ID: fr.ID, Data: append([]byte(nil), fr.Data...)})
	})

	tx := can.NewController("ecu-body")
	body.Attach(tx)
	k.At(sim.Millisecond, func() {
		_ = tx.Send(can.Frame{ID: 0x155, Data: []byte{1, 2, 3, 4}}, nil)
		_ = tx.Send(can.Frame{ID: 0x300, Data: []byte{9}}, nil) // outside the rule: dropped
	})
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}

	if len(got) != 1 || got[0].ID != 0x155 {
		t.Fatalf("powertrain received %v, want exactly ID 0x155", got)
	}
	if string(got[0].Data) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("payload %v corrupted in transit", got[0].Data)
	}
	if f.BackboneFramesTotal() == 0 {
		t.Fatal("cross-zone frame never touched the backbone")
	}
	if n := f.BackboneDeliveriesTotal(); n != 1 {
		t.Fatalf("backbone deliveries = %d, want 1", n)
	}
}

func TestZoneQuarantineIsolatesButLocalRoutingSurvives(t *testing.T) {
	g, k := oneKernel(1, 2*sim.Microsecond)
	f := New(g, 2*sim.Microsecond, ethernet.DefaultLinkBps)
	za, _ := f.AddZone("a")
	zb, _ := f.AddZone("b")
	pt := can.NewBus(k, "powertrain", 500_000)
	b1 := can.NewBus(k, "body1", 500_000)
	b2 := can.NewBus(k, "body2", 500_000)
	_ = za.AttachDomain("powertrain", can.Netif(pt))
	_ = zb.AttachDomain("body1", can.Netif(b1))
	_ = zb.AttachDomain("body2", can.Netif(b2))
	f.SetRules([]*gateway.Rule{
		{Name: "open", From: "*", IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
	})

	ptRx, b2Rx := 0, 0
	rx1 := can.NewController("pt-ecu")
	pt.Attach(rx1)
	rx1.OnReceive(func(sim.Time, *can.Frame, *can.Controller) { ptRx++ })
	rx2 := can.NewController("b2-ecu")
	b2.Attach(rx2)
	rx2.OnReceive(func(sim.Time, *can.Frame, *can.Controller) { b2Rx++ })

	tx := can.NewController("b1-ecu")
	b1.Attach(tx)

	if err := f.QuarantineZone("b"); err != nil {
		t.Fatal(err)
	}
	if !f.ZoneQuarantined("b") || f.ZoneQuarantined("a") {
		t.Fatal("quarantine state wrong")
	}
	k.At(sim.Millisecond, func() { _ = tx.Send(can.Frame{ID: 0x123, Data: []byte{1}}, nil) })
	_ = k.RunUntil(100 * sim.Millisecond)

	if ptRx != 0 {
		t.Fatalf("quarantined zone leaked %d frames across the backbone", ptRx)
	}
	if b2Rx != 1 {
		t.Fatalf("intra-zone routing broke under zone quarantine: got %d, want 1", b2Rx)
	}

	// Release restores cross-zone forwarding.
	if err := f.ReleaseZone("b"); err != nil {
		t.Fatal(err)
	}
	k.At(200*sim.Millisecond, func() { _ = tx.Send(can.Frame{ID: 0x124, Data: []byte{2}}, nil) })
	_ = k.RunUntil(sim.Second)
	if ptRx != 1 {
		t.Fatalf("release did not restore forwarding: ptRx=%d", ptRx)
	}
}

func TestDefaultAllowCrossesZones(t *testing.T) {
	k, f, pt, body := rig2(t)
	f.SetDefaultAction(gateway.Allow)

	n := 0
	rx := can.NewController("pt-ecu")
	pt.Attach(rx)
	rx.OnReceive(func(sim.Time, *can.Frame, *can.Controller) { n++ })
	tx := can.NewController("body-ecu")
	body.Attach(tx)
	k.At(sim.Millisecond, func() { _ = tx.Send(can.Frame{ID: 0x42, Data: []byte{1}}, nil) })
	_ = k.RunUntil(100 * sim.Millisecond)
	if n != 1 {
		t.Fatalf("default-allow delivered %d frames cross-zone, want 1", n)
	}
}

func TestRateLimitAppliedAtSourceZone(t *testing.T) {
	k, f, pt, body := rig2(t)
	f.SetRules([]*gateway.Rule{{
		Name: "limited", From: "body", To: []string{"powertrain"},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow, RatePerSec: 10, BurstFrames: 10,
	}})
	n := 0
	rx := can.NewController("pt-ecu")
	pt.Attach(rx)
	rx.OnReceive(func(sim.Time, *can.Frame, *can.Controller) { n++ })
	tx := can.NewController("body-ecu")
	body.Attach(tx)
	// 100 frames in one second against a 10/s limit with burst 10.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		k.At(at, func() { _ = tx.Send(can.Frame{ID: 0x100, Data: []byte{1}}, nil) })
	}
	_ = k.RunUntil(2 * sim.Second)
	zb, _ := f.ZoneByName("b")
	if zb.GW.RateLimited.Value == 0 {
		t.Fatal("source zone never rate-limited")
	}
	if n > 25 {
		t.Fatalf("%d frames crossed a 10/s limit in ~1s", n)
	}
}

// Two identical runs must produce identical delivery traces: the zonal
// layer introduces no map-order or other nondeterminism.
func TestZonalDeterministic(t *testing.T) {
	run := func() []string {
		k, f, pt, body := rig2(t)
		f.SetRules([]*gateway.Rule{
			{Name: "open", From: "*", IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
		})
		var log []string
		rx := can.NewController("pt-ecu")
		pt.Attach(rx)
		rx.OnReceive(func(at sim.Time, fr *can.Frame, _ *can.Controller) {
			log = append(log, fmt.Sprintf("%d:%03X", at, fr.ID))
		})
		tx := can.NewController("body-ecu")
		body.Attach(tx)
		s := k.Stream("test.zonal")
		for i := 0; i < 50; i++ {
			id := can.ID(0x100 + s.Intn(0x80))
			at := sim.Time(i)*sim.Millisecond + s.Duration(0, sim.Millisecond)
			k.At(at, func() { _ = tx.Send(can.Frame{ID: id, Data: []byte{byte(i)}}, nil) })
		}
		_ = k.RunUntil(sim.Second)
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("delivery traces differ:\n%v\n%v", a, b)
	}
}

func TestTopologyErrors(t *testing.T) {
	g, k := oneKernel(1, 0)
	f := New(g, 0, ethernet.DefaultLinkBps)
	if _, err := f.AddZone(BackboneDomain); err == nil {
		t.Fatal("zone named backbone must be rejected")
	}
	z, err := f.AddZone("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddZone("a"); err == nil {
		t.Fatal("duplicate zone must be rejected")
	}
	if err := z.AttachDomain(BackboneDomain, can.Netif(can.NewBus(k, "x", 500_000))); err == nil {
		t.Fatal("domain named backbone must be rejected")
	}
	_ = z.AttachDomain("pt", can.Netif(can.NewBus(k, "pt", 500_000)))
	z2, _ := f.AddZone("b")
	if err := z2.AttachDomain("pt", can.Netif(can.NewBus(k, "pt2", 500_000))); err == nil {
		t.Fatal("domain owned by another zone must be rejected")
	}
	if err := f.QuarantineZone("ghost"); err == nil {
		t.Fatal("unknown zone quarantine must error")
	}
	if err := f.QuarantineDomain("ghost"); err == nil {
		t.Fatal("unknown domain quarantine must error")
	}
	if zz, ok := f.ZoneOf("pt"); !ok || zz != z {
		t.Fatal("ZoneOf lost the directory entry")
	}
}

// TestPerZoneDeliveryProbes pins the per-zone observability surface: each
// zone exposes zone-<name>/backbone_deliveries counting only its own
// accepted backbone ingress, and the fabric totals stay consistent with
// the per-zone split on a one-kernel fabric.
func TestPerZoneDeliveryProbes(t *testing.T) {
	k, f, pt, body := rig2(t)
	f.SetRules([]*gateway.Rule{{
		Name: "body-to-pt", From: "body", To: []string{"powertrain"},
		IDLo: 0x100, IDHi: 0x1FF, Action: gateway.Allow,
	}})
	_ = pt

	reg := obs.NewRegistry()
	f.Instrument(nil, reg)

	tx := can.NewController("ecu-body")
	body.Attach(tx)
	k.At(sim.Millisecond, func() {
		_ = tx.Send(can.Frame{ID: 0x155, Data: []byte{1}}, nil)
		_ = tx.Send(can.Frame{ID: 0x156, Data: []byte{2}}, nil)
	})
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}

	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		snap[m.Key] = m.Value
	}
	if got := snap["zone-a/backbone_deliveries"]; got != 2 {
		t.Fatalf("zone-a deliveries = %v, want 2", got)
	}
	if got := snap["zone-b/backbone_deliveries"]; got != 0 {
		t.Fatalf("zone-b deliveries = %v, want 0 (egress is not ingress)", got)
	}
	if got := snap["zonal/backbone_deliveries"]; got != 2 {
		t.Fatalf("fabric delivery total = %v, want 2", got)
	}
}

// TestBackboneMatchesSwitchModel pins the fabric backbone's timing to the
// ethernet.Switch store-and-forward model: a frame reaches the far zone's
// gateway exactly when a two-host switch with the same hop latency
// delivers a frame with the same payload length. The lengths straddle the
// 46-byte minimum-frame pad; the last case is a 254-byte FlexRay frame
// tunnelled over the backbone.
func TestBackboneMatchesSwitchModel(t *testing.T) {
	const hop = 2 * sim.Microsecond
	const sendAt = sim.Millisecond

	// fabricCrossing sends fr from zone a's local domain and reports when
	// zone b's gateway took it off the backbone.
	fabricCrossing := func(fr netif.Frame) sim.Duration {
		kind := fr.Medium
		g, k := oneKernel(1, hop)
		f := New(g, hop, ethernet.DefaultLinkBps)
		za, _ := f.AddZone("a")
		zb, _ := f.AddZone("b")
		src := &stubMedium{kind: kind}
		if err := za.AttachDomain("src", src); err != nil {
			t.Fatal(err)
		}
		if err := zb.AttachDomain("dst", &stubMedium{kind: kind}); err != nil {
			t.Fatal(err)
		}
		f.SetRules([]*gateway.Rule{{Name: "open", From: "src", To: []string{"dst"}, IDLo: 0, IDHi: 0xFFFF, Action: gateway.Allow}})
		at := sim.Time(-1)
		f.Observe(func(now sim.Time, zone, from string, _ *netif.Frame, verdict string) {
			if zone == "b" && from == BackboneDomain {
				at = now
			}
		})
		k.At(sendAt, func() { src.ports[0].recv(sendAt, &fr) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if at < 0 {
			t.Fatalf("%s %dB: frame never crossed the backbone", kind, len(fr.Payload))
		}
		return at - sendAt
	}
	// switchCrossing is the reference: one broadcast frame through a
	// two-host ethernet.Switch.
	switchCrossing := func(n int) sim.Duration {
		k := sim.NewKernel(1)
		sw := ethernet.NewSwitch(k, "ref", hop)
		tx := ethernet.NewHost("tx", ethernet.LocalMAC(1))
		rx := ethernet.NewHost("rx", ethernet.LocalMAC(2))
		sw.Connect(tx, 1)
		sw.Connect(rx, 1)
		at := sim.Time(-1)
		rx.OnReceive(func(now sim.Time, _ *ethernet.Frame) { at = now })
		k.At(sendAt, func() {
			if err := tx.Send(ethernet.Frame{Dst: ethernet.Broadcast, EtherType: uint16(netif.TunnelEtherType), Payload: make([]byte, n)}); err != nil {
				t.Fatal(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at - sendAt
	}

	for _, c := range []struct {
		kind    netif.Kind
		payload int
	}{
		{netif.Ethernet, 0},
		{netif.Ethernet, 12},
		{netif.Ethernet, 45},
		{netif.Ethernet, 46},
		{netif.Ethernet, 47},
		{netif.Ethernet, 300},
		{netif.Ethernet, 1500},
		{netif.FlexRay, 254},
	} {
		fr := netif.Frame{Medium: c.kind, ID: 0x10, Priority: 0x10, Payload: make([]byte, c.payload)}
		// The backbone frame: native Ethernet as-is, anything else in the
		// tunnel encapsulation, exactly as a zone gateway translates it.
		var bb netif.Frame
		var scratch []byte
		if err := netif.Translate(&bb, &fr, netif.Ethernet, &scratch); err != nil {
			t.Fatal(err)
		}
		got, want := fabricCrossing(fr), switchCrossing(len(bb.Payload))
		if got != want {
			t.Errorf("%s %dB (%dB on the backbone): fabric crossing %v, switch model %v", c.kind, c.payload, len(bb.Payload), got, want)
		}
	}
}

// TestResetDropsScenarioZoneFromBackbone pins that ResetToBaseline takes
// a zone added after MarkBaseline off the backbone: a zone re-added under
// the same name gets the next backbone port, and frames reach it once,
// never the dropped zone.
func TestResetDropsScenarioZoneFromBackbone(t *testing.T) {
	r := newZoneRig(t, 2, 1, 3)
	r.fab.MarkBaseline()
	addZone := func() *[]string {
		z, err := r.fab.AddZone("z2")
		if err != nil {
			t.Fatal(err)
		}
		log := &[]string{}
		if err := z.AttachDomain("d2", &recMedium{now: z.Kernel().Now, log: log}); err != nil {
			t.Fatal(err)
		}
		return log
	}
	dropped := addZone()
	r.fab.ResetToBaseline()
	readded := addZone()
	r.inject(0, sim.Millisecond, 0x100, 1)
	r.run(t)
	if len(*dropped) != 0 || len(*readded) != 1 {
		t.Fatalf("deliveries: dropped zone %q, re-added zone %q; want none and one", *dropped, *readded)
	}
}
