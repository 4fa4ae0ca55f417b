package main

import (
	"fmt"
	"time"

	"autosec/internal/audit"
	"autosec/internal/campaign"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/ids"
	"autosec/internal/ieee1609"
	"autosec/internal/netif"
	"autosec/internal/ota"
	"autosec/internal/sim"
	"autosec/internal/v2x"
)

// Replay probes time single layer calls on inputs captured from the
// workloads through public taps: powertrain records and alerts (the
// medium tap and IDS.OnAlert) and audit entries from fleet-zonal
// vehicles, signed BSMs from v2x-intersection (Field.Listen), and the
// bundles the campaign backend serves. They run in every traced run, so
// each reports on every workload; each probe repeats probeReps times and
// reports the median ns/op and allocs/op.
const (
	probeReps          = 5
	probeFleetVehicles = 64
	probeResetOps      = 200
	probeColdOps       = 100
	probeMemoOps       = 4000
)

// sink keeps probe results alive so the calls are not optimised away.
var sink any

// opStats accumulates one repetition of a probe.
type opStats struct {
	ns     time.Duration
	allocs uint64
	ops    int
}

// timeOp times one call and adds it to s.
func (s *opStats) timeOp(fn func()) {
	a0 := readCounter("/gc/heap/allocs:objects")
	t0 := time.Now()
	fn()
	s.ns += time.Since(t0)
	s.allocs += readCounter("/gc/heap/allocs:objects") - a0
	s.ops++
}

// timeBatch times n calls as one interval.
func (s *opStats) timeBatch(n int, fn func()) {
	a0 := readCounter("/gc/heap/allocs:objects")
	t0 := time.Now()
	fn()
	s.ns += time.Since(t0)
	s.allocs += readCounter("/gc/heap/allocs:objects") - a0
	s.ops += n
}

// probe runs rep probeReps times and records <name>_<unit> and
// <name>_allocs as medians.
func probe(out map[string]metric, name, unit string, rep func(s *opStats) error) error {
	scale := map[string]float64{"ns": 1, "us": 1e3}[unit]
	var nsPer, allocsPer []float64
	for i := 0; i < probeReps; i++ {
		var s opStats
		if err := rep(&s); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if s.ops == 0 {
			return fmt.Errorf("%s: no captured inputs", name)
		}
		nsPer = append(nsPer, float64(s.ns.Nanoseconds())/float64(s.ops)/scale)
		allocsPer = append(allocsPer, float64(s.allocs)/float64(s.ops))
	}
	out[name+"_"+unit] = metric{median(nsPer), unit}
	out[name+"_allocs"] = metric{median(allocsPer), "count"}
	return nil
}

// fleetCapture is what the fleet-zonal taps recorded.
type fleetCapture struct {
	records [][]netif.Record // powertrain traffic, per vehicle
	alerts  []ids.Alert
	entries []audit.Entry
	train   *netif.Trace
}

// captureFleet drives probeFleetVehicles fleet-zonal vehicles on a
// private pool (the medium tap survives pool resets, so the pool is
// discarded afterwards).
func captureFleet(f *fleetInst, seed uint64) (*fleetCapture, error) {
	capt := &fleetCapture{train: f.train}
	pool := core.NewVehiclePool(f.cfg)
	var cur *[]netif.Record
	for idx := 0; idx < probeFleetVehicles; idx++ {
		v, err := pool.Acquire(fleet.VehicleSeed(seed, idx))
		if err != nil {
			return nil, err
		}
		if idx == 0 {
			v.Media[core.DomainPowertrain].Tap(func(at sim.Time, fr *netif.Frame, corrupted bool) {
				*cur = append(*cur, netif.Record{At: at, Frame: fr.Clone(), Corrupted: corrupted})
			})
		}
		capt.records = append(capt.records, nil)
		cur = &capt.records[len(capt.records)-1]
		v.IDS.OnAlert(func(a ids.Alert) { capt.alerts = append(capt.alerts, a) })
		if _, err := f.scenario(idx, v, nil, noSpan); err != nil {
			return nil, err
		}
		capt.entries = append(capt.entries, v.Audit.Entries()...)
		pool.Release(v)
	}
	return capt, nil
}

func runProbes(seed uint64) (map[string]metric, error) {
	out := map[string]metric{}
	inst, err := setupFleet(seed, 1, nil)
	if err != nil {
		return nil, err
	}
	f := inst.(*fleetInst)
	fc, err := captureFleet(f, seed)
	if err != nil {
		return nil, err
	}

	// core.VehiclePool.Acquire on a vehicle the fleet scenario just used.
	pool := core.NewVehiclePool(f.cfg)
	if err := probe(out, "core.reset", "us", func(s *opStats) error {
		v, err := pool.Acquire(seed)
		if err != nil {
			return err
		}
		for i := 0; i < probeResetOps; i++ {
			if _, err := f.scenario(i, v, nil, noSpan); err != nil {
				return err
			}
			pool.Release(v)
			s.timeOp(func() { v, err = pool.Acquire(fleet.VehicleSeed(seed, i)) })
			if err != nil {
				return err
			}
		}
		pool.Release(v)
		return nil
	}); err != nil {
		return nil, err
	}

	// ids.Engine.Observe: each captured vehicle stream into a freshly
	// trained engine of the stock suite.
	if err := probe(out, "ids.observe", "ns", func(s *opStats) error {
		for _, recs := range fc.records {
			e := ids.NewEngineFromSuite(ids.BaselineSuite())
			e.Train(fc.train)
			s.timeBatch(len(recs), func() {
				for _, r := range recs {
					sink = e.Observe(r)
				}
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := probe(out, "ids.alert_render", "ns", func(s *opStats) error {
		for i := 0; i < 200; i++ {
			s.timeBatch(len(fc.alerts), func() {
				for _, a := range fc.alerts {
					sink = a.String()
				}
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// audit.Log.Append of the captured entries into a fresh sealed log.
	if err := probe(out, "audit.append", "ns", func(s *opStats) error {
		log := audit.New(func(msg []byte) ([]byte, error) { return msg[:16], nil })
		s.timeBatch(len(fc.entries), func() {
			for _, e := range fc.entries {
				log.Append(e.At, e.Source, e.Event)
			}
		})
		return nil
	}); err != nil {
		return nil, err
	}

	if err := v2xProbes(seed, out); err != nil {
		return nil, err
	}
	if err := otaProbes(out); err != nil {
		return nil, err
	}
	return out, nil
}

// v2xProbes replays the signed messages one v2x-intersection round put
// on the air into a fresh receiver store, installing the round's CRL at
// the instant it landed.
func v2xProbes(seed uint64, out map[string]metric) error {
	in, err := newIntersection(seed, nil)
	if err != nil {
		return err
	}
	type heard struct {
		at  sim.Time
		msg *ieee1609.SignedMessage
	}
	var msgs []heard
	in.field.Listen(func(at sim.Time, _ v2x.Position, msg *ieee1609.SignedMessage) {
		msgs = append(msgs, heard{at, msg})
	})
	if _, err := in.run(nil, noSpan); err != nil {
		return err
	}
	opts := ieee1609.VerifyOptions{Freshness: sim.Second, FutureSlack: 10 * sim.Millisecond}
	replay := func(s *opStats, op func(st *ieee1609.Store, h heard)) error {
		st := ieee1609.NewStore(in.rootCert)
		st.AddCert(in.pcaCert)
		crlSet := false
		for _, h := range msgs {
			if !crlSet && h.at >= v2xCRLAt {
				if err := st.SetCRL(in.crl, h.at); err != nil {
					return err
				}
				crlSet = true
			}
			s.timeOp(func() { op(st, h) })
		}
		return nil
	}
	if err := probe(out, "ieee1609.verify", "us", func(s *opStats) error {
		return replay(s, func(st *ieee1609.Store, h heard) {
			sink, _ = st.Verify(h.msg, h.at+2*sim.Millisecond, opts)
		})
	}); err != nil {
		return err
	}
	if err := probe(out, "ieee1609.verify_chain", "us", func(s *opStats) error {
		return replay(s, func(st *ieee1609.Store, h heard) {
			sink = st.VerifyChain(h.msg.Cert, h.at)
		})
	}); err != nil {
		return err
	}
	cred := in.signer
	return probe(out, "ieee1609.sign", "us", func(s *opStats) error {
		for _, h := range msgs {
			var err error
			s.timeOp(func() { sink, err = cred.Sign(ieee1609.PSIDBasicSafety, h.msg.Payload, h.at, false) })
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// otaProbes applies the current bundle the campaign backend serves to
// freshly provisioned clients: with a new verification cache per
// install (cold: two signature checks and an attestation) and through
// one warm cache (memoized).
func otaProbes(out map[string]metric) error {
	backend, err := campaign.NewBackend(campaignModels, campaign.StaleExpiry, campaign.CampaignExpiry)
	if err != nil {
		return err
	}
	dirKey, imgKey := backend.Keys()
	now := 3 * sim.Minute
	clients := func(n int) []*ota.Client {
		cs := make([]*ota.Client, n)
		for i := range cs {
			m := i % campaignModels
			c := ota.NewClient(fmt.Sprintf("VIN-%06d", i+1), dirKey, imgKey)
			c.Group = campaign.Group(m)
			c.AddECU(backend.Current(m).Director.Targets[0].HWID, 0)
			cs[i] = c
		}
		return cs
	}
	// apply installs on every client in one timed batch; caches are
	// made before timing starts.
	apply := func(s *opStats, cs []*ota.Client, cache func() *ota.VerifyCache) error {
		vcs := make([]*ota.VerifyCache, len(cs))
		for i := range vcs {
			vcs[i] = cache()
		}
		var err error
		s.timeBatch(len(cs), func() {
			for i, c := range cs {
				if e := c.ApplyCached(backend.Current(i%campaignModels), now, vcs[i]); e != nil && err == nil {
					err = e
				}
			}
		})
		return err
	}
	if err := probe(out, "ota.cold_apply", "us", func(s *opStats) error {
		return apply(s, clients(probeColdOps), ota.NewVerifyCache)
	}); err != nil {
		return err
	}
	return probe(out, "ota.memo_apply", "ns", func(s *opStats) error {
		warm := ota.NewVerifyCache()
		if err := apply(&opStats{}, clients(campaignModels), func() *ota.VerifyCache { return warm }); err != nil {
			return err
		}
		return apply(s, clients(probeMemoOps), func() *ota.VerifyCache { return warm })
	})
}
