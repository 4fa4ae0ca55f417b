package experiments

import (
	"context"
	"fmt"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// E18 sweeps fleet size × zone count over the pooled fleet driver: every
// cell simulates each vehicle of an n-vehicle fleet end to end (20% of
// them carrying a compromised infotainment ECU), then folds the
// per-vehicle metrics through the replicate-aggregation machinery with
// one "replicate" per vehicle, merged in vehicle-index order. What the
// sweep measures is the fleet-scale shape of the §7 containment story:
// how much attack traffic reaches powertrains fleet-wide, what the
// backbone carries per vehicle as zone count grows, and how big the
// quarantine blast radius is when the reflex fires.
//
// Wall-clock throughput (vehicles/sec) is deliberately absent from the
// table — it is machine-dependent and lives in BenchmarkFleetVehiclesPerSec
// instead.
//
// p.Sweep replaces the fleet sizes (benchreport -sweep) and p.Workers
// the fleet driver's worker count (0 = GOMAXPROCS); the golden table
// uses {1e3, 1e4, 1e5} × zones {1, 2, 4}, where zones == 1 builds the
// central-gateway topology.
func E18Fleet(seed uint64, p Params) *Table {
	fleetSizes := p.Sweep
	if fleetSizes == nil {
		fleetSizes = []int{1_000, 10_000, 100_000}
	}
	t := &Table{
		ID:    "E18",
		Title: "Fleet-scale sweep: pooled vehicles × zonal containment (§7)",
		Claim: "a pooled fleet driver scales per-vehicle containment measurements to 1e5 vehicles; finer zoning shrinks the quarantine blast radius at the cost of backbone load",
		Columns: []string{"fleet", "topology", "domains",
			"attack through/veh", "legit through/veh", "blocked/veh",
			"backbone frames/veh", "quarantined fraction", "blast radius"},
	}
	for _, zones := range []int{1, 2, 4} {
		cfg := core.Config{VIN: "E18-FLEET", Seed: seed}
		topology := "central gateway"
		domains := 3 // powertrain, chassis, infotainment
		blast := 1   // central quarantine isolates just the offending domain
		if zones > 1 {
			// One private body domain per zone, so zone quarantine has
			// collateral: the infotainment zone's local domain goes down
			// with it.
			cfg.Zonal = &core.ZonalConfig{
				Zones:        zones,
				LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
			}
			topology = fmt.Sprintf("%d zones", zones)
			domains = 3 + zones
			blast = 2 // infotainment + its zone's body domain
		}
		for _, n := range fleetSizes {
			d := fleet.Driver{Cfg: cfg, N: n, Workers: p.Workers}
			perVehicle, err := fleet.Drive(context.Background(), d, func(idx int, v *core.Vehicle) (*Table, error) {
				return e18Vehicle(v, e18Compromised(idx)), nil
			})
			if err != nil {
				panic(fmt.Sprintf("E18: fleet drive (n=%d, zones=%d): %v", n, zones, err))
			}
			folds := make([][]*Table, len(perVehicle))
			for i, vt := range perVehicle {
				folds[i] = []*Table{vt}
			}
			agg, err := Aggregate(folds)
			if err != nil {
				panic(fmt.Sprintf("E18: aggregate (n=%d, zones=%d): %v", n, zones, err))
			}
			cell := func(name string) string {
				for c, col := range agg[0].Columns {
					if col == name {
						return agg[0].Rows[0][c]
					}
				}
				panic("E18: missing per-vehicle metric column " + name)
			}
			t.AddRow(n, topology, domains,
				cell("attack through"), cell("legit through"), cell("blocked"),
				cell("backbone frames"), cell("quarantined"),
				fmt.Sprintf("%d/%d domains", blast, domains))
		}
	}
	return t
}

// e18Compromised marks every fifth vehicle as carrying the compromised
// head unit: 20% of the fleet, spread uniformly over the index space.
func e18Compromised(idx int) bool { return idx%5 == 0 }

// e18Vehicle runs one vehicle's 7ms scenario and returns its single-row
// metrics table (shape shared by every vehicle so the aggregation fold
// can merge them).
//
// The policy is a carried-over legacy-open rule set: everything from
// infotainment crosses to powertrain, so a compromised head unit's
// engine-torque flood (ID 0x0C0, from t=2ms) reaches the powertrain
// until a monitor at the attachment point — the stand-in for the IDS
// reflex — sees the third attack frame and quarantines the source:
// centrally the infotainment domain alone, zonally its whole zone at the
// backbone uplink. Legit cross-domain flows (nav pings, chassis
// heartbeats) run throughout and measure the collateral. "Blocked" is
// end-to-end — attack frames sent minus attack frames that reached the
// powertrain — because zonal quarantine drops egress at the backbone
// uplink without a per-frame gateway verdict.
func e18Vehicle(v *core.Vehicle, compromised bool) *Table {
	k := v.Kernel
	rules := []*gateway.Rule{
		{Name: "legacy-open", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
			IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow},
		{Name: "chassis-status", From: core.DomainChassis, To: []string{core.DomainPowertrain},
			IDLo: 0x400, IDHi: 0x40F, Action: gateway.Allow},
	}
	if v.Zonal != nil {
		v.Zonal.SetRules(rules)
	} else {
		v.Gateway.SetRules(rules)
	}
	// The quarantine reflex is modeled by the attachment-point monitor
	// below, so the stock detector trio only adds per-frame cost here;
	// removing it is scenario state that the pool's next Reset restores.
	for _, name := range []string{"frequency", "interval", "spec"} {
		v.IDS.Remove(name)
	}

	isolated := 0
	quarantine := func() {
		if isolated > 0 {
			return
		}
		if v.Zonal != nil {
			_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
			z, _ := v.Zonal.ZoneOf(core.DomainInfotainment)
			for _, name := range v.Zonal.Domains() {
				if zz, ok := v.Zonal.ZoneOf(name); ok && zz == z {
					isolated++
				}
			}
		} else {
			_ = v.Gateway.Quarantine(core.DomainInfotainment)
			isolated = 1
		}
	}

	// Per-vehicle phase jitter from the kernel's seeded stream: ECUs in a
	// real fleet don't boot in lockstep, and the jitter is what makes the
	// per-vehicle seed (and the pool's reseeding on Reset) observable in
	// the fleet aggregate.
	rng := k.Stream("e18-phase")
	phase := func(lo, hi sim.Duration) sim.Duration { return rng.Duration(lo, hi) }

	// Legit flows: a nav ping crossing infotainment→powertrain and a
	// chassis heartbeat (cross-zone on zonal builds with enough zones).
	nav := can.NewController("nav")
	v.Buses[core.DomainInfotainment].Attach(nav)
	k.Every(phase(500*sim.Microsecond, 1500*sim.Microsecond), 4*sim.Millisecond, func() {
		_ = nav.Send(can.Frame{ID: 0x155, Data: []byte{0x4E, 0x41, 0x56, 0x31}}, nil)
	})
	status := can.NewController("chassis-ecu")
	v.Buses[core.DomainChassis].Attach(status)
	k.Every(phase(1500*sim.Microsecond, 2500*sim.Microsecond), 4*sim.Millisecond, func() {
		_ = status.Send(can.Frame{ID: 0x405, Data: []byte{0x05, 0x01}}, nil)
	})

	// Compromised head unit: engine-torque flood through legacy-open.
	attackSent := 0
	if compromised {
		mal := can.NewController("headunit")
		v.Buses[core.DomainInfotainment].Attach(mal)
		k.Every(phase(sim.Millisecond, 3*sim.Millisecond), sim.Millisecond, func() {
			attackSent++
			_ = mal.Send(can.Frame{ID: 0x0C0, Data: []byte{0xFF, 0xFF, 0, 0, 0, 0, 0, 0}}, nil)
		})
	}

	// Powertrain attachment-point monitor: counts what crossed and fires
	// the quarantine reflex on the third attack frame.
	attackThrough, legitThrough := 0, 0
	mon := can.NewController("monitor")
	v.Buses[core.DomainPowertrain].Attach(mon)
	mon.OnReceive(func(_ sim.Time, f *can.Frame, _ *can.Controller) {
		switch f.ID {
		case 0x0C0:
			attackThrough++
			if attackThrough >= 3 {
				quarantine()
			}
		case 0x155, 0x405:
			legitThrough++
		}
	})

	k.RunUntil(7 * sim.Millisecond)

	backbone := int64(0)
	if v.Zonal != nil {
		backbone = v.Zonal.BackboneFramesTotal()
	}
	quarantined := 0
	if isolated > 0 {
		quarantined = 1
	}
	vt := &Table{
		ID:      "E18V",
		Columns: []string{"attack through", "legit through", "blocked", "backbone frames", "quarantined", "domains isolated"},
	}
	vt.AddRow(attackThrough, legitThrough, attackSent-attackThrough, backbone, quarantined, isolated)
	return vt
}
