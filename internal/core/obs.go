package core

import (
	"autosec/internal/obs"
)

// Instrument wires the whole vehicle into the observability layer in one
// call: kernel dispatch tracing, per-domain bus spans and metrics,
// gateway verdicts, IDS alerts, audit-log health, OTA outcomes (when a
// client is attached) and the PKES unit. Either argument may be nil —
// tracing and metrics enable independently — and a vehicle that is never
// instrumented pays only nil checks on its hot paths. It is
// InstrumentParallel with one tracer, which a per-zone-kernel build
// rejects: one trace ring cannot take concurrent appends from several
// kernels.
func (v *Vehicle) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil && v.Group.Members() > 1 {
		panic("core: shared tracer on a per-zone-kernel build; use InstrumentParallel")
	}
	v.InstrumentParallel([]*obs.Tracer{tr}, reg)
}

// reattachMetrics is the metrics-only re-instrument fast path for pooled
// vehicles: when this vehicle was already Instrument-ed into reg and has
// since been Reset, the registry still holds every probe closure (probes
// bind to subsystem objects, which the pool reuses — see
// obs.Registry.Rewind) and the only state to restore is the hot-path
// instrument pointers Reset detached. The full path costs ~60 heap
// allocations per vehicle in key interning and closure re-registration;
// this path costs three pointer writes per cached subsystem. Any cache
// miss (different registry, never instrumented) falls back to the full
// path, so correctness never depends on the cache being warm.
func (v *Vehicle) reattachMetrics(reg *obs.Registry) bool {
	if reg == nil || v.OTA != nil {
		// An attached OTA client is scenario state the cache has never
		// seen; take the full path so its instruments register.
		return false
	}
	for _, name := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		if !v.Buses[name].ReattachMetrics(reg) {
			return false
		}
	}
	if !v.IDS.ReattachMetrics(reg) {
		return false
	}
	return v.Audit.ReattachMetrics(reg)
}

// InstrumentParallel is Instrument with one tracer per kernel-group
// member: member i's kernel — and every subsystem homed on it (its
// zones' buses and gateways) — attaches to tracers[i], so each trace
// ring is appended by exactly one kernel. Subsystems homed in zone 0
// (IDS, keyless, OTA) use tracers[0]. tracers may be nil or shorter than
// the member count; missing entries mean metrics-only for that member.
// Metrics register against the shared registry; on a per-zone-kernel
// build read them between runs only. Buses instrument in fixed domain
// order so label interning (and therefore trace bytes) is deterministic.
func (v *Vehicle) InstrumentParallel(tracers []*obs.Tracer, reg *obs.Registry) {
	trOf := func(i int) *obs.Tracer {
		if i < len(tracers) {
			return tracers[i]
		}
		return nil
	}
	traced := false
	for i := 0; i < v.Group.Members(); i++ {
		if t := trOf(i); t != nil {
			v.Group.Kernel(i).SetTraceSink(t)
			traced = true
		}
	}
	if !traced && v.reattachMetrics(reg) {
		return
	}
	if reg != nil {
		reg.Probe("kernel/steps", func() float64 { return float64(v.Group.Steps()) })
		reg.Probe("kernel/pending", func() float64 { return float64(v.Group.Pending()) })
	}
	for _, name := range []string{DomainPowertrain, DomainChassis, DomainInfotainment} {
		v.Buses[name].Instrument(trOf(v.memberOf(name)), reg)
	}
	if v.Zonal != nil {
		v.Zonal.InstrumentZones(tracers, reg)
	} else {
		v.Gateway.Instrument(trOf(0), reg)
	}
	v.IDS.Instrument(trOf(0), reg)
	v.Audit.Instrument(reg)
	if v.OTA != nil {
		v.OTA.Instrument(trOf(0), reg)
	}
	v.Keyless.Instrument(trOf(0), reg, v.Kernel.Now)
	if reg != nil {
		reg.Probe("core/auth_failures", func() float64 { return float64(v.AuthFailures.Value) })
	}
}
