package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// fleet-zonal: a pooled fleet of 2-zone vehicles driven through
// fleet.Drive. Every vehicle carries periodic legitimate CAN traffic,
// two flows of it crossing the shared Ethernet backbone into the
// powertrain, and the stock IDS suite trained on that traffic with the
// auto-quarantine reflex armed. One vehicle in fleetCompromiseEvery has
// a compromised head unit that floods the powertrain across the
// backbone under a carried-over legacy-open rule.
var fleetZonal = benchWorkload{
	name:  "fleet-zonal",
	unit:  "vehicle",
	setup: setupFleet,
}

const (
	fleetVehicles        = 3000
	fleetCompromiseEvery = 8
	fleetHorizon         = 200 * sim.Millisecond
	// fleetTrainSpan is the length of the clean trace each vehicle's IDS
	// trains on: ten frequency-detector windows.
	fleetTrainSpan = sim.Second
	// fleetAuditSampleEvery selects the vehicles whose audit chain and
	// seals the oracle verifies.
	fleetAuditSampleEvery = 8
	// fleetSmokeVehicles run through the scenario during set-up.
	fleetSmokeVehicles = 64
	floodID            = can.ID(0x0C0)
)

var (
	// Legitimate traffic. ptSpecs stay on the powertrain bus; navSpecs
	// (infotainment, zone 1) and bodySpecs (z1-body) cross the backbone
	// into the powertrain.
	ptSpecs = []workload.MessageSpec{
		{ID: 0x0A0, Period: 10 * sim.Millisecond, Size: 8, Sender: "engine-ecu", Counter: true},
		{ID: 0x0B0, Period: 20 * sim.Millisecond, Size: 6, Sender: "engine-ecu"},
	}
	navSpecs = []workload.MessageSpec{
		{ID: 0x301, Period: 10 * sim.Millisecond, Size: 4, Sender: "nav-ecu"},
	}
	bodySpecs = []workload.MessageSpec{
		{ID: 0x311, Period: 20 * sim.Millisecond, Size: 4, Sender: "body-ecu"},
	}
)

// fleetRules builds a vehicle's rule set. Each vehicle gets its own
// slice: the fabric keeps it, and a pooled Reset clears it in place.
func fleetRules() []*gateway.Rule {
	return []*gateway.Rule{
		// The legacy-open rule a compromised head unit exploits.
		{Name: "legacy-open", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
			IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow},
		{Name: "body-status", From: "z1-body", To: []string{core.DomainPowertrain},
			IDLo: 0x310, IDHi: 0x31F, Action: gateway.Allow},
	}
}

type fleetInst struct {
	cfg     core.Config
	workers int
	train   *netif.Trace
	// compromised marks the vehicles with a compromised head unit.
	compromised []bool
	times       []float64
}

type fleetVehicle struct {
	steps, observed, alerts, audit, bbFrames, bbDeliveries int64
	compromised, quarantined, failed                       bool
}

func setupFleet(seed uint64, workers int, tr *tracer) (instance, error) {
	all := append(append(append([]workload.MessageSpec(nil), ptSpecs...), navSpecs...), bodySpecs...)
	sp := tr.begin("workload.SyntheticTrace", noSpan)
	train := workload.SyntheticTrace(all, fleetTrainSpan, seed, 0.01).Netif()
	tr.end(sp)
	inst := &fleetInst{
		cfg: core.Config{VIN: "PB-FLEET", Seed: seed, Zonal: &core.ZonalConfig{
			Zones:        2,
			LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
		}},
		workers:     workers,
		train:       train,
		compromised: pickCompromised(seed),
		times:       make([]float64, fleetVehicles),
	}
	// Smoke pass: the first vehicles through the same scenario, so a
	// broken build fails before any timing.
	pool := core.NewVehiclePool(inst.cfg)
	for idx := 0; idx < fleetSmokeVehicles; idx++ {
		sp := tr.begin("core.VehiclePool.Acquire", noSpan)
		v, err := pool.Acquire(fleet.VehicleSeed(seed, idx))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r, err := inst.scenario(idx, v, tr, noSpan)
		if err != nil {
			return nil, err
		}
		if r.failed {
			return nil, fmt.Errorf("smoke pass: vehicle %d failed its oracle", idx)
		}
		pool.Release(v)
	}
	return inst, nil
}

// pickCompromised marks exactly one vehicle in fleetCompromiseEvery:
// those whose seeded index hash ranks lowest.
func pickCompromised(seed uint64) []bool {
	order := make([]int, fleetVehicles)
	for i := range order {
		order[i] = i
	}
	key := func(i int) uint64 { return fleet.VehicleSeed(seed^0xC0FFEE, i) }
	sort.Slice(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	out := make([]bool, fleetVehicles)
	for _, i := range order[:fleetVehicles/fleetCompromiseEvery] {
		out[i] = true
	}
	return out
}

func (f *fleetInst) run(tr *tracer) (*result, error) {
	root := tr.begin("fleet.Drive", noSpan)
	vs, err := fleet.Drive(context.Background(), fleet.Driver{Cfg: f.cfg, N: fleetVehicles, Workers: f.workers},
		func(idx int, v *core.Vehicle) (fleetVehicle, error) {
			t0 := time.Now()
			r, err := f.scenario(idx, v, tr, root)
			f.times[idx] = float64(time.Since(t0).Microseconds())
			return r, err
		})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res := &result{units: int64(len(vs)), ops: int64(len(vs)), counts: map[string]int64{}}
	h := fnv.New64a()
	var buf [8]byte
	c := res.counts
	for _, r := range vs {
		c["sim.events"] += r.steps
		c["ids.observed"] += r.observed
		c["ids.alerts"] += r.alerts
		c["audit.appends"] += r.audit
		c["zonal.backbone_frames"] += r.bbFrames
		c["zonal.backbone_deliveries"] += r.bbDeliveries
		if r.compromised {
			c["fleet.compromised"]++
		}
		if r.quarantined {
			c["fleet.quarantined"]++
		}
		if r.failed {
			res.failed++
		}
		for _, x := range []int64{r.steps, r.observed, r.alerts, r.audit, r.bbFrames, r.bbDeliveries} {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	c["digest"] = int64(h.Sum64() >> 1)
	return res, nil
}

// scenario is one vehicle's drive: rules, trained IDS with the
// quarantine reflex, legitimate traffic, the flood on compromised
// vehicles, then the oracles.
func (f *fleetInst) scenario(idx int, v *core.Vehicle, tr *tracer, parent int32) (fleetVehicle, error) {
	top := tr.begin("bench.vehicle", parent)
	defer tr.end(top)
	k := v.Kernel
	r := fleetVehicle{compromised: f.compromised[idx]}

	sp := tr.begin("zonal.Fabric.SetRules", top)
	v.Zonal.SetRules(fleetRules())
	tr.end(sp)
	sp = tr.begin("core.Vehicle.TrainIDS", top)
	v.TrainIDS(f.train)
	tr.end(sp)
	sp = tr.begin("core.Vehicle.ArmAutoQuarantine", top)
	v.ArmAutoQuarantine(core.DomainInfotainment)
	tr.end(sp)

	sp = tr.begin("workload.StartSenders", top)
	workload.StartSenders(k, v.Buses[core.DomainPowertrain], ptSpecs, 0.01)
	workload.StartSenders(k, v.Buses[core.DomainInfotainment], navSpecs, 0.01)
	workload.StartSenders(k, v.Buses["z1-body"], bodySpecs, 0.01)
	tr.end(sp)
	if r.compromised {
		sp = tr.begin("can.PeriodicSender", top)
		hu := can.NewController("compromised-headunit")
		v.Buses[core.DomainInfotainment].Attach(hu)
		start := k.Stream("perfbench.attack").Duration(50*sim.Millisecond, 150*sim.Millisecond)
		k.At(start, func() {
			can.PeriodicSender(k, hu, can.Frame{ID: floodID, Data: make([]byte, 8)}, 500*sim.Microsecond, 0)
		})
		tr.end(sp)
	}

	sp = tr.begin("core.Vehicle.RunUntil", top)
	err := v.RunUntil(fleetHorizon)
	tr.end(sp)
	if err != nil {
		return r, err
	}

	z, _ := v.Zonal.ZoneOf(core.DomainInfotainment)
	r.quarantined = v.Zonal.ZoneQuarantined(z.Name)
	// Oracle: every compromised vehicle ends with its head unit's zone
	// quarantined, and no clean vehicle is quarantined.
	r.failed = r.quarantined != r.compromised
	if idx%fleetAuditSampleEvery == 0 {
		sp = tr.begin("audit.Log.SealNow", top)
		err := v.Audit.SealNow(k.Now())
		tr.end(sp)
		if err != nil {
			return r, err
		}
		sp = tr.begin("audit.Log.VerifyChain", top)
		if v.Audit.VerifyChain() != nil {
			r.failed = true
		}
		tr.end(sp)
		sp = tr.begin("audit.Log.VerifySeals", top)
		if v.Audit.VerifySeals() != nil {
			r.failed = true
		}
		tr.end(sp)
	}
	r.steps = int64(k.Steps())
	r.observed = v.IDS.Observed()
	r.alerts = int64(len(v.IDS.Alerts))
	r.audit = int64(v.Audit.Len())
	r.bbFrames = v.Zonal.BackboneFramesTotal()
	r.bbDeliveries = v.Zonal.BackboneDeliveriesTotal()
	return r, nil
}

func (f *fleetInst) unitTimes() []float64 { return f.times }
