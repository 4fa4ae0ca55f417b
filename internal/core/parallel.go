// Parallel intra-vehicle simulation. A vehicle built with
// ZonalConfig.PerZoneKernels runs each zone on its own sim.Kernel under a
// conservative sim.KernelGroup: intra-zone traffic (CAN arbitration,
// workload matrices, IDS inference, local gateway verdicts) dispatches
// concurrently, and only backbone crossings synchronize, with the
// Ethernet tunnel latency as lookahead. Execution is byte-deterministic
// at any SetParallelism setting — the equivalence property
// TestKernelParSerialParallelEquivalence enforces.
//
// Rules for scenario code driving a parallel vehicle:
//
//   - Schedule domain work on KernelFor(domain), never on Vehicle.Kernel
//     unless the domain shards into zone 0.
//   - Drive time with Vehicle.Run/RunUntil (the group), not the member
//     kernels' own Run methods.
//   - Shared subsystems that are not kernel-local — the SHE, the audit
//     log, Fusion, Keyless — may only be touched from member 0's kernel
//     or between runs; gateway/IDS events reach the audit log through
//     the per-member staging buffers automatically.
//   - Read cross-zone aggregates (zonal totals, group Steps) between
//     runs only.
package core

import (
	"autosec/internal/sim"
)

// backboneHopLatency is the fixed store-and-forward processing latency of
// the zonal backbone switch that both zonal flavors model. On
// per-zone-kernel builds its minimum crossing time
// (ethernet.TunnelLookahead) also bounds the kernel group's lookahead.
const backboneHopLatency = 2 * sim.Microsecond

// standardDomainZone returns the zone index a standard domain shards
// into: powertrain fronts the first zone, infotainment (the exposed
// domain) the last, chassis the middle.
func standardDomainZone(name string, zones int) int {
	switch name {
	case DomainChassis:
		return (zones - 1) / 2
	case DomainInfotainment:
		return zones - 1
	default:
		return 0
	}
}

// KernelFor returns the kernel that owns a domain's events: the owning
// zone's member kernel on a per-zone-kernel build, the vehicle kernel
// otherwise. Scenario code scheduling domain traffic must use it.
func (v *Vehicle) KernelFor(domain string) *sim.Kernel {
	if v.Zonal != nil {
		if z, ok := v.Zonal.ZoneOf(domain); ok {
			return z.Kernel()
		}
	}
	return v.Kernel
}

// Run drives the vehicle until its event queues drain: the kernel group
// on a parallel build, the single kernel otherwise.
func (v *Vehicle) Run() error {
	if v.Group != nil {
		return v.Group.Run()
	}
	return v.Kernel.Run()
}

// RunUntil drives the vehicle to virtual time t (inclusive).
func (v *Vehicle) RunUntil(t sim.Time) error {
	if v.Group != nil {
		return v.Group.RunUntil(t)
	}
	return v.Kernel.RunUntil(t)
}

// SetParallelism sets the worker count of a parallel build's kernel
// group (1 = serial reference execution). No-op on single-kernel builds.
// Any value produces byte-identical simulation results.
func (v *Vehicle) SetParallelism(n int) {
	if v.Group != nil {
		v.Group.SetWorkers(n)
	}
}

// stagedAudit is one audit event waiting in a member's staging buffer
// for the barrier merge.
type stagedAudit struct {
	at  sim.Time
	src string
	msg string
}

// mergeAuditStages drains the per-member staging buffers into the sealed
// audit log in (time, member) order. It runs at every group barrier, on
// the coordinating goroutine, so Append (and the SHE sealing inside it)
// is single-threaded; entries within one member's buffer are already in
// nondecreasing time order because its kernel staged them in dispatch
// order. The merge order depends only on staged content, never on the
// worker count — audit chains are byte-identical at any parallelism.
func (v *Vehicle) mergeAuditStages() {
	idx := v.stageIdx
	for {
		best := -1
		for m := range v.auditStage {
			i := idx[m]
			if i >= len(v.auditStage[m]) {
				continue
			}
			if best == -1 || v.auditStage[m][i].at < v.auditStage[best][idx[best]].at {
				best = m
			}
		}
		if best == -1 {
			break
		}
		e := v.auditStage[best][idx[best]]
		idx[best]++
		v.Audit.Append(e.at, e.src, e.msg)
	}
	for m := range v.auditStage {
		v.auditStage[m] = v.auditStage[m][:0]
		idx[m] = 0
	}
}
