package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// zonal-partitioned: one 8-zone vehicle on per-zone kernels
// (sim.KernelGroup) at nproc workers, run for a long virtual time. Every
// zone's body domain reports into the powertrain across the partitioned
// backbone, one zone probes it with a frame no rule allows (denials the
// audit stages merge), and halfway through the powertrain's zone asks
// for another zone's quarantine with RequestZoneQuarantine. The shared
// ethernet.Switch is never built here.
var zonalPartitioned = benchWorkload{
	name:  "zonal-partitioned",
	unit:  "sim_ms",
	setup: setupZonal,
}

const (
	zonalZones   = 8
	zonalHorizon = 30 * sim.Second
	// zonalSmokeHorizon is the set-up run, before the quarantine fires.
	zonalSmokeHorizon = sim.Second
	zonalQuarantine   = "z5-body"
	zonalProbeZone    = "z3-body"
)

type zonalInst struct {
	pool    *core.VehiclePool
	seed    uint64
	workers int
	train   *netif.Trace
}

// zonalStatus is the status flow zone i's body ECU sends to the
// powertrain.
func zonalStatus(i int) workload.MessageSpec {
	return workload.MessageSpec{ID: can.ID(0x310 + i), Period: 10 * sim.Millisecond, Size: 4, Sender: fmt.Sprintf("z%d-ecu", i)}
}

func setupZonal(seed uint64, workers int, tr *tracer) (instance, error) {
	specs := append([]workload.MessageSpec(nil), workload.PowertrainMatrix()...)
	for i := 1; i < zonalZones; i++ {
		specs = append(specs, zonalStatus(i))
	}
	sp := tr.begin("workload.SyntheticTrace", noSpan)
	train := workload.SyntheticTrace(specs, 2*sim.Second, seed, 0.01).Netif()
	tr.end(sp)
	in := &zonalInst{
		pool: core.NewVehiclePool(core.Config{VIN: "PB-ZONAL", Seed: seed, Zonal: &core.ZonalConfig{
			Zones:          zonalZones,
			LocalDomains:   []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
			PerZoneKernels: true,
		}}),
		seed: seed, workers: workers, train: train,
	}
	// Smoke pass: build the vehicle and run the scenario briefly, so a
	// broken build fails before any timing and rounds only reset it.
	if r, err := in.drive(tr, workers, zonalSmokeHorizon); err != nil || r.failed > 0 {
		return nil, fmt.Errorf("smoke pass: failed=%v err=%v", r != nil && r.failed > 0, err)
	}
	return in, nil
}

func (in *zonalInst) run(tr *tracer) (*result, error) { return in.drive(tr, in.workers, zonalHorizon) }

func (in *zonalInst) reference() (*result, error) { return in.drive(nil, 1, zonalHorizon) }

func (in *zonalInst) drive(tr *tracer, workers int, horizon sim.Time) (*result, error) {
	top := tr.begin("bench.vehicle", noSpan)
	defer tr.end(top)
	sp := tr.begin("core.VehiclePool.Acquire", top)
	v, err := in.pool.Acquire(in.seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer in.pool.Release(v)
	v.SetParallelism(workers)

	rules := []*gateway.Rule{{Name: "z0-z4", From: "z0-body", To: []string{"z4-body"},
		IDLo: 0x200, IDHi: 0x2FF, Action: gateway.Allow}}
	for i := 1; i < zonalZones; i++ {
		id := uint32(zonalStatus(i).ID)
		rules = append(rules, &gateway.Rule{Name: fmt.Sprintf("z%d-status", i), From: fmt.Sprintf("z%d-body", i),
			To: []string{core.DomainPowertrain}, IDLo: id, IDHi: id, Action: gateway.Allow})
	}
	sp = tr.begin("zonal.Fabric.SetRules", top)
	v.Zonal.SetRules(rules)
	tr.end(sp)
	sp = tr.begin("core.Vehicle.TrainIDS", top)
	v.TrainIDS(in.train)
	tr.end(sp)

	sp = tr.begin("workload.StartSenders", top)
	v.StartTraffic()
	for i := 1; i < zonalZones; i++ {
		d := fmt.Sprintf("z%d-body", i)
		workload.StartSenders(v.KernelFor(d), v.Buses[d], []workload.MessageSpec{zonalStatus(i)}, 0.01)
	}
	workload.StartSenders(v.KernelFor("z0-body"), v.Buses["z0-body"],
		[]workload.MessageSpec{{ID: 0x240, Period: 5 * sim.Millisecond, Size: 8, Sender: "z0-seat"}}, 0.01)
	// A diagnostic probe no rule allows: denied at its zone's egress.
	workload.StartSenders(v.KernelFor(zonalProbeZone), v.Buses[zonalProbeZone],
		[]workload.MessageSpec{{ID: 0x7A0, Period: 20 * sim.Millisecond, Size: 8, Sender: "z3-probe"}}, 0.01)
	tr.end(sp)
	pt := v.KernelFor(core.DomainPowertrain)
	var qerr error
	pt.At(zonalHorizon/2, func() { qerr = v.Zonal.RequestZoneQuarantine(core.DomainPowertrain, zonalQuarantine) })

	sp = tr.begin("core.Vehicle.RunUntil", top)
	err = v.RunUntil(horizon)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &result{units: int64(horizon / sim.Millisecond), ops: 1, counts: map[string]int64{}}
	c := r.counts
	c["sim.events"] = int64(v.Group.Steps())
	c["zonal.backbone_frames"] = v.Zonal.BackboneFramesTotal()
	c["zonal.backbone_deliveries"] = v.Zonal.BackboneDeliveriesTotal()
	c["ids.observed"] = v.IDS.Observed()
	c["ids.alerts"] = int64(len(v.IDS.Alerts))
	c["audit.appends"] = int64(v.Audit.Len())
	h := fnv.New64a()
	if n := v.Audit.Len(); n > 0 {
		head := v.Audit.Entries()[n-1].Hash()
		h.Write(head[:])
	}
	names := make([]string, 0, len(v.Buses))
	for name := range v.Buses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d;", name, v.Buses[name].FramesOK.Value)
	}
	c["digest"] = int64(h.Sum64() >> 1)
	// Oracle (with the one-worker reference run): once requested, the
	// quarantine took effect in the requested zone only, and the audit
	// chain verifies.
	want := horizon > zonalHorizon/2
	z, _ := v.Zonal.ZoneOf(zonalQuarantine)
	quarantined := 0
	for _, zz := range v.Zonal.Zones() {
		if v.Zonal.ZoneQuarantined(zz.Name) {
			quarantined++
		}
	}
	sp = tr.begin("audit.Log.VerifyChain", top)
	chainErr := v.Audit.VerifyChain()
	tr.end(sp)
	if qerr != nil || v.Zonal.ZoneQuarantined(z.Name) != want || (quarantined == 1) != want || chainErr != nil {
		r.failed = 1
	}
	return r, nil
}
