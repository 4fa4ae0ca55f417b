// Vehicle execution on a sim.KernelGroup. Every vehicle runs on a group:
// a one-member group is the plain serial kernel, and a vehicle built
// with ZonalConfig.PerZoneKernels runs each zone on its own member under
// the group's conservative synchronization — intra-zone traffic (CAN
// arbitration, workload matrices, IDS inference, local gateway verdicts)
// dispatches concurrently, and only backbone crossings synchronize, with
// the Ethernet tunnel latency as lookahead. Execution is
// byte-deterministic at any SetParallelism setting — the equivalence
// property TestKernelParSerialParallelEquivalence enforces.
//
// Rules for scenario code driving a per-zone-kernel vehicle:
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
// the zonal backbone switch. Its minimum crossing time
// (ethernet.TunnelLookahead) is also the kernel group's lookahead.
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

// memberOf returns the kernel-group member that owns a domain's events:
// the owning zone's member on a zonal build, member 0 otherwise.
func (v *Vehicle) memberOf(domain string) int {
	if v.Zonal != nil {
		if z, ok := v.Zonal.ZoneOf(domain); ok {
			return z.Member()
		}
	}
	return 0
}

// KernelFor returns the kernel that owns a domain's events. Scenario
// code scheduling domain traffic must use it.
func (v *Vehicle) KernelFor(domain string) *sim.Kernel { return v.Group.Kernel(v.memberOf(domain)) }

// Run drives the vehicle until its event queues drain.
func (v *Vehicle) Run() error { return v.Group.Run() }

// RunUntil drives the vehicle to virtual time t (inclusive).
func (v *Vehicle) RunUntil(t sim.Time) error { return v.Group.RunUntil(t) }

// SetParallelism sets how many goroutines dispatch the kernel group's
// windows (1 = serial reference execution); a one-member group always
// runs serially. Any value produces byte-identical simulation results.
func (v *Vehicle) SetParallelism(n int) { v.Group.SetWorkers(n) }

// auditEvent records a security event raised on member m's kernel: appended
// to the sealed log at once on a one-member group, staged for the
// barrier merge when several members could append concurrently.
func (v *Vehicle) auditEvent(m int, at sim.Time, src, msg string) {
	if v.Group.Members() == 1 {
		v.Audit.Append(at, src, msg)
		return
	}
	v.auditStage[m] = append(v.auditStage[m], stagedAudit{at: at, src: src, msg: msg})
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
