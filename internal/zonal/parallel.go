// The zonal backbone, and how it crosses kernel boundaries.
//
// The backbone is modelled as a store-and-forward switch: a frame sent
// by one zone floods to every other zone, arriving ingress-serialization
// + switch-hop + egress-serialization after the send
// (ethernet.WireDuration timing, the same arithmetic as the
// ethernet.Switch model). Every fabric runs its zones on a
// sim.KernelGroup, and the backbone is where zones on different members
// meet: an arrival at a zone on the sender's own kernel is scheduled
// there directly, and an arrival at a zone on another member goes
// through the group's conservative mailbox. That choice is the only
// difference between a one-member fabric and a per-zone-kernel one, so
// both deliver every frame at the same virtual instant.
//
// With one member per zone, each zone's gateway, local media and
// workloads live entirely on that zone's kernel, and the only
// cross-kernel interaction is a backbone crossing. Because no frame can
// cross faster than the minimum-size crossing,
// ethernet.TunnelLookahead(hop, linkBps) bounds every message distance
// and serves as the group's lookahead: zones dispatch whole windows of
// intra-zone events in parallel without ever seeing a cross-zone frame
// arrive in their past.
//
// The crossing is allocation-free in steady state: frame payloads copy
// into pooled message nodes (netif.Frame.CopyInto reuses each node's
// buffer), delivery callbacks are prebound once per node, and the
// per-port node pools are mutex-guarded because across kernels a node
// is minted by the sending zone's goroutine and recycled by the
// receiving zone's.
package zonal

import (
	"errors"
	"fmt"
	"sync"

	"autosec/internal/ethernet"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// Kernel returns the kernel the zone runs on, its kernel-group member's.
// Local media attached to the zone must be built on this kernel.
func (z *Zone) Kernel() *sim.Kernel { return z.k }

// Member returns the zone's kernel-group member: its creation index
// modulo the group size.
func (z *Zone) Member() int { return z.member }

// BackboneFramesTotal reports every frame the backbone carried (tunnel
// frames and native Ethernet alike) — the backbone-load metric — as the
// sum of per-zone egress counters. The counters are per-zone so the
// hot path never shares a cache line across kernels; on a fabric with
// several kernels read totals only between runs.
func (f *Fabric) BackboneFramesTotal() int64 {
	var n int64
	for _, bn := range f.bb {
		n += bn.port.frames.Value
	}
	return n
}

// BackboneDeliveriesTotal reports backbone-ingress frames zones accepted
// and delivered locally. With broadcast flooding every inter-zone frame
// reaches all other zones, so this scales as (zones-1) per forwarded
// frame — the flooding cost E17 measures. Read only between runs on
// fabrics with several kernels.
func (f *Fabric) BackboneDeliveriesTotal() int64 {
	var n int64
	for _, z := range f.zones {
		n += z.bbDeliveries.Value
	}
	return n
}

// RequestZoneQuarantine isolates the zone owning targetDomain, requested
// from the zone owning fromDomain — the cross-zone containment reflex
// (an IDS in one zone cutting another zone's uplink). When both zones
// run on one kernel it applies immediately; otherwise the request
// crosses the kernel boundary as a timestamped control message and takes
// effect one backbone lookahead later, which is also what keeps it
// deterministic at any parallelism. Both domains must be known (errors
// wrap ErrUnknown). Callable from an event on the requesting zone's
// kernel, or between runs.
func (f *Fabric) RequestZoneQuarantine(fromDomain, targetDomain string) error {
	sz, ok := f.domainZone[fromDomain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, fromDomain)
	}
	tz, ok := f.domainZone[targetDomain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, targetDomain)
	}
	if sz.member == tz.member {
		return f.QuarantineZone(tz.Name)
	}
	f.group.Send(sz.member, tz.member, sz.k.Now()+f.group.Lookahead(), tz.quarantineFn)
	return nil
}

// backboneNet is one zone's view of the backbone: a netif.Medium whose
// single port belongs to that zone's gateway. A send floods to every
// other zone's port (tunnel frames are broadcast, and gateway-port MACs
// are never unicast targets, so a learning switch would flood them too),
// each copy riding a pooled message node.
type backboneNet struct {
	fab  *Fabric
	zone int // index of the owning zone
	port *backbonePort
	taps []netif.TapFunc
}

func (m *backboneNet) Kind() netif.Kind { return netif.Ethernet }
func (m *backboneNet) Name() string     { return "zonal-backbone" }

// Tap observes this zone's backbone egress (each frame fires exactly one
// zone's taps — its sender's — so fabric-wide tap counts see every frame
// once, like a monitor port on a switch).
func (m *backboneNet) Tap(fn netif.TapFunc) { m.taps = append(m.taps, fn) }

func (m *backboneNet) Open(name string) (netif.Port, error) {
	if m.port != nil {
		return nil, errors.New("zonal: backbone port already open")
	}
	m.port = &backbonePort{net: m, name: name}
	return m.port, nil
}

// backbonePort is the zone gateway's backbone attachment.
type backbonePort struct {
	net  *backboneNet
	name string
	recv netif.RecvFunc

	// frames counts frames this zone put on the backbone (egress).
	frames sim.Counter

	// Pooled in-flight message nodes for frames addressed *to* this
	// zone. Minted under mu by remote sending kernels, recycled under mu
	// by this zone's kernel after delivery.
	mu   sync.Mutex
	free []*bbMsg
}

func (p *backbonePort) Name() string                { return p.name }
func (p *backbonePort) Kind() netif.Kind            { return netif.Ethernet }
func (p *backbonePort) OnReceive(fn netif.RecvFunc) { p.recv = fn }

// Send floods the frame to every other zone. The arrival instant is
// identical for all destinations — send + ingress serialization + hop +
// egress serialization, store-and-forward switch timing — and is always
// at least the group's lookahead away, because the lookahead is derived
// from the minimum-size crossing.
func (p *backbonePort) Send(f *netif.Frame) error {
	fab := p.net.fab
	src := fab.zones[p.net.zone]
	now := src.k.Now()
	p.frames.Inc()
	for _, tap := range p.net.taps {
		tap(now, f, false)
	}
	serial := ethernet.WireDuration(len(f.Payload), fab.linkBps)
	at := now + serial + fab.hop + serial
	for di, dz := range fab.zones {
		if di == p.net.zone {
			continue
		}
		m := fab.bb[di].port.allocMsg()
		m.at = at
		f.CopyInto(&m.frame)
		if dz.member == src.member {
			dz.k.At(at, m.fn)
		} else {
			fab.group.Send(src.member, dz.member, at, m.fn)
		}
	}
	return nil
}

// bbMsg is one pooled in-flight backbone frame. fn is prebound to
// deliver at mint time, so re-sends through the pool allocate nothing.
type bbMsg struct {
	port  *backbonePort
	at    sim.Time
	frame netif.Frame
	fn    func()
}

func (p *backbonePort) allocMsg() *bbMsg {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return m
	}
	p.mu.Unlock()
	m := &bbMsg{port: p}
	m.fn = m.deliver
	return m
}

// deliver runs on the receiving zone's kernel at the frame's arrival
// instant: hand the frame view to the gateway ingress, then recycle the
// node (keeping its payload buffer for reuse).
func (m *bbMsg) deliver() {
	p := m.port
	if p.recv != nil {
		p.recv(m.at, &m.frame)
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}
