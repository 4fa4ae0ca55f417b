// compare.go implements benchreport -compare: the perf regression gate
// against a committed BENCH_PRn.json baseline. Three families of checks:
//
//  1. Experiment tables: every experiment pinned in the baseline is
//     re-run in its golden configuration (zero experiments.Params,
//     whatever the command-line flags) and its rendered-table SHA-256
//     must match byte for byte —
//     reproducibility is the repo contract, so a hash drift is always a
//     failure, never a tolerance. Wall-clock is additionally gated for
//     macro experiments (baseline >= 1s, where 15% is signal rather than
//     scheduler noise): slower than 1.15x baseline fails.
//  2. Fleet microbenchmark probes: the fleet drive with observability
//     off, with the metrics plane on, and the registry merge point are
//     re-measured in-process via testing.Benchmark. Probes named in the
//     baseline's "microbenchmarks" block are held to the same 15% ns
//     tolerance, and any allocs/op increase is a hard failure.
//  3. Standing gates independent of the baseline: the metrics-plane
//     overhead ratio (obs/off) must stay under 1.10, and the merge probe
//     must stay at 0 allocs/op.
//
// Committed baselines are generated at seed 1; run -compare without
// -seed (or with -seed 1) or the hash checks are skipped with a warning.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/experiments"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/ids"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/ota"
	"autosec/internal/sim"
)

// comparedExperiment is one pinned experiment in a baseline file.
type comparedExperiment struct {
	NS   int64  `json:"ns"`
	Hash string `json:"table_sha256"`
}

// comparedMicro is one pinned microbenchmark in a baseline file. Only
// probes compare knows how to regenerate (the Benchmark* names below)
// participate; others are reported as skipped.
type comparedMicro struct {
	NSPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// comparisonBaseline is the subset of a BENCH_PRn.json compare reads.
// The experiments block appears in two historical shapes — the
// hand-annotated map of BENCH_PR7.json and the -json array of
// BENCH_PR2.json — so it is decoded leniently from raw messages.
type comparisonBaseline struct {
	PR              int                           `json:"pr"`
	RawExperiments  json.RawMessage               `json:"experiments"`
	Microbenchmarks map[string]comparedMicro      `json:"microbenchmarks"`
	experiments     map[string]comparedExperiment `json:"-"`
}

// loadBaseline parses path and normalizes the experiments block.
func loadBaseline(path string) (*comparisonBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b comparisonBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b.experiments = map[string]comparedExperiment{}
	if len(b.RawExperiments) == 0 {
		return &b, nil
	}
	if err := json.Unmarshal(b.RawExperiments, &b.experiments); err == nil {
		return &b, nil
	}
	var list []struct {
		ID   string `json:"id"`
		NS   int64  `json:"ns"`
		Hash string `json:"table_sha256"`
	}
	if err := json.Unmarshal(b.RawExperiments, &list); err != nil {
		return nil, fmt.Errorf("%s: experiments block is neither a map nor a list: %w", path, err)
	}
	for _, e := range list {
		b.experiments[e.ID] = comparedExperiment{NS: e.NS, Hash: e.Hash}
	}
	return &b, nil
}

// nsTolerance is the macro wall-clock regression budget: slower than
// 1.15x the pinned nanoseconds fails the gate.
const nsTolerance = 1.15

// macroNS is the baseline duration below which ns comparison is
// informational only — sub-second experiments move more than 15% from
// scheduler noise alone on shared CI runners.
const macroNS = int64(time.Second)

// obsOverheadBudget is the acceptance gate from the observability plane:
// the fleet drive with merged metrics must stay under 10% over the
// disabled path.
const obsOverheadBudget = 1.10

// campaignMemoSpeedup is the acceptance floor from the campaign engine:
// the memoized per-vehicle verify (warm VerifyCache, signatures and
// attestation already proven for this campaign) must be at least this
// many times faster than the cold path that runs ed25519 per poll.
const campaignMemoSpeedup = 10.0

// runCompare executes the gate and returns the process exit code.
func runCompare(path string, seed uint64) int {
	base, err := loadBaseline(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: -compare: %v\n", err)
		return 1
	}
	fmt.Printf("compare vs %s (PR %d baseline)\n\n", path, base.PR)
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("  FAIL  "+format+"\n", args...)
	}
	ok := func(format string, args ...any) {
		fmt.Printf("  ok    "+format+"\n", args...)
	}
	skip := func(format string, args ...any) {
		fmt.Printf("  skip  "+format+"\n", args...)
	}

	ids := make([]string, 0, len(base.experiments))
	for id := range base.experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pin := base.experiments[id]
		spec, found := experiments.Lookup(id)
		if !found {
			skip("%s: no such experiment in this build", id)
			continue
		}
		start := time.Now()
		rendered := spec.Run(seed, experiments.Params{}).String()
		elapsed := time.Since(start)
		hash := fmt.Sprintf("%x", sha256.Sum256([]byte(rendered)))
		switch {
		case pin.Hash == "":
			skip("%s: baseline pins no table hash", id)
		case seed != 1:
			skip("%s: hash check needs -seed 1 (baselines are generated at seed 1)", id)
		case hash != pin.Hash:
			fail("%s: table hash %s != pinned %s (output drifted)", id, hash[:12], pin.Hash[:12])
		default:
			ok("%s: table hash matches (%s)", id, hash[:12])
		}
		switch {
		case pin.NS <= 0:
			// nothing pinned
		case pin.NS < macroNS:
			ok("%s: %v vs pinned %v (sub-second: informational)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond))
		case float64(elapsed.Nanoseconds()) > nsTolerance*float64(pin.NS):
			fail("%s: %v vs pinned %v (> %.0f%% slower)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond),
				100*(nsTolerance-1))
		default:
			ok("%s: %v vs pinned %v (within %.0f%%)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond),
				100*(nsTolerance-1))
		}
	}

	fmt.Println()
	off := benchBest(3, probeFleetDrive)
	obsOn := benchBest(3, probeFleetDriveObs)
	merge := benchBest(2, probeFleetMerge)
	idsBase := benchBest(2, probeIDSObserveBaseline)
	idsMedium := benchBest(2, probeIDSObserveMediumAware)
	verifyCold := benchBest(2, probeCampaignVerifyCold)
	verifyMemo := benchBest(3, probeCampaignVerifyMemoized)
	probes := []struct {
		name string
		res  testing.BenchmarkResult
	}{
		{"BenchmarkFleetVehiclesPerSec", off},
		{"BenchmarkFleetVehiclesPerSecObs", obsOn},
		{"BenchmarkFleetRegistryMerge", merge},
		{"BenchmarkIDSObserveBaseline", idsBase},
		{"BenchmarkIDSObserveMediumAware", idsMedium},
		{"BenchmarkCampaignVerifyThroughputCold", verifyCold},
		{"BenchmarkCampaignVerifyThroughputMemoized", verifyMemo},
	}
	for _, p := range probes {
		pin, pinned := base.Microbenchmarks[p.name]
		ns, allocs := float64(p.res.NsPerOp()), float64(p.res.AllocsPerOp())
		if !pinned {
			ok("%s: %.0f ns/op, %.0f allocs/op (no baseline pin)", p.name, ns, allocs)
			continue
		}
		if pin.NSPerOp > 0 && ns > nsTolerance*pin.NSPerOp {
			fail("%s: %.0f ns/op vs pinned %.0f (> %.0f%% slower)", p.name, ns, pin.NSPerOp, 100*(nsTolerance-1))
		} else {
			ok("%s: %.0f ns/op vs pinned %.0f", p.name, ns, pin.NSPerOp)
		}
		if allocs > pin.AllocsPerOp {
			fail("%s: %.0f allocs/op vs pinned %.0f (allocation regression is a hard failure)",
				p.name, allocs, pin.AllocsPerOp)
		}
	}

	ratio := float64(obsOn.NsPerOp()) / float64(off.NsPerOp())
	if ratio > obsOverheadBudget {
		fail("metrics-plane overhead: obs/off = %.3fx (budget %.2fx)", ratio, obsOverheadBudget)
	} else {
		ok("metrics-plane overhead: obs/off = %.3fx (budget %.2fx)", ratio, obsOverheadBudget)
	}
	if a := merge.AllocsPerOp(); a != 0 {
		fail("registry merge point: %d allocs/op (must be 0 in steady state)", a)
	} else {
		ok("registry merge point: 0 allocs/op")
	}
	for _, p := range []struct {
		name string
		res  testing.BenchmarkResult
	}{{"baseline", idsBase}, {"medium-aware", idsMedium}} {
		if a := p.res.AllocsPerOp(); a != 0 {
			fail("ids observe hot path (%s): %d allocs/op (must be 0 in steady state)", p.name, a)
		} else {
			ok("ids observe hot path (%s): 0 allocs/op", p.name)
		}
	}
	if a := verifyMemo.AllocsPerOp(); a != 0 {
		fail("campaign memoized verify: %d allocs/op (must be 0 on the hot path)", a)
	} else {
		ok("campaign memoized verify: 0 allocs/op")
	}
	speedup := float64(verifyCold.NsPerOp()) / float64(verifyMemo.NsPerOp())
	if speedup < campaignMemoSpeedup {
		fail("campaign verify memoization: %.1fx over cold (floor %.0fx)", speedup, campaignMemoSpeedup)
	} else {
		ok("campaign verify memoization: %.1fx over cold (floor %.0fx)", speedup, campaignMemoSpeedup)
	}

	fmt.Println()
	if failures > 0 {
		fmt.Printf("FAIL: %d regression(s) vs %s\n", failures, path)
		return 1
	}
	fmt.Printf("PASS: no regressions vs %s\n", path)
	return 0
}

// benchBest runs f through testing.Benchmark rounds times and keeps the
// fastest result — single-shot wall-clock on a shared runner is too
// noisy to gate on directly.
func benchBest(rounds int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < rounds; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// compareCfg mirrors the fleet benchmark topology: two zones plus a
// local body CAN domain.
func compareCfg() core.Config {
	return core.Config{VIN: "COMPARE-FLEET", Seed: 1, Zonal: &core.ZonalConfig{
		Zones:        2,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
}

// compareVehicle is one probe vehicle's scenario, shaped like the
// internal/fleet benchmark scenario the overhead gate is defined on:
// periodic infotainment traffic crossing the zonal backbone into the
// powertrain, quarantine reflex on a subset of vehicles, 4ms virtual so
// testing.B can scale the fleet size. Matching that per-vehicle weight
// matters — a lighter scenario inflates the fixed observability cost
// into a larger ratio than the one the acceptance gate pins.
func compareVehicle(idx int, v *core.Vehicle) (int, error) {
	k := v.Kernel
	v.Zonal.SetRules([]*gateway.Rule{{
		Name: "probe", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
		IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow,
	}})
	tx := can.NewController("probe-ecu")
	v.Buses[core.DomainInfotainment].Attach(tx)
	st := k.Stream("compare-probe")
	k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), 500*sim.Microsecond, func() {
		_ = tx.Send(can.Frame{ID: can.ID(0x100 + idx%8), Data: []byte{byte(idx)}}, nil)
	})
	if idx%7 == 3 {
		k.At(2*sim.Millisecond, func() {
			_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
		})
	}
	return 0, k.RunUntil(4 * sim.Millisecond)
}

// probeFleetDrive measures the fleet drive with observability off; b.N
// is the fleet size, so ns/op is per-vehicle cost.
func probeFleetDrive(b *testing.B) {
	b.ReportAllocs()
	if _, err := fleet.Drive(context.Background(), fleet.Driver{Cfg: compareCfg(), N: b.N}, compareVehicle); err != nil {
		b.Fatal(err)
	}
}

// probeFleetDriveObs is probeFleetDrive with the metrics plane on — the
// numerator of the overhead gate.
func probeFleetDriveObs(b *testing.B) {
	b.ReportAllocs()
	_, res, err := fleet.DriveObs(context.Background(), fleet.Driver{Cfg: compareCfg(), N: b.N},
		fleet.ObsOptions{Metrics: true}, fleet.Wave{Hi: b.N},
		func(idx int, v *core.Vehicle, _ *obs.Registry) (int, error) { return compareVehicle(idx, v) })
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Registry.Snapshot()) == 0 {
		b.Fatal("metrics plane produced an empty fleet registry")
	}
}

// idsProbeRecord builds one fabric record for the observe-path probes.
func idsProbeRecord(at sim.Time, medium netif.Kind, id uint32, sender string, n int) netif.Record {
	return netif.Record{At: at, Frame: netif.Frame{
		Medium: medium, ID: id, Sender: sender,
		Src: netif.HWAddr{0x02, 0, 0, 0, 0, 0x51}, Aux: 1, Payload: make([]byte, n),
	}}
}

// idsProbeEngine returns a suite engine trained on a small mixed-media
// trace, plus conforming steady-state records — the same shape as the
// internal/ids observe benchmarks the alloc gate mirrors.
func idsProbeEngine(s ids.Suite) (*ids.Engine, []netif.Record) {
	e := ids.NewEngineFromSuite(s)
	var train []netif.Record
	for i := 0; i < 8; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		train = append(train, idsProbeRecord(at, netif.FlexRay, 9, "steer-ecu", 8))
	}
	for round := 0; round < 4; round++ {
		for i, id := range []uint32{0x10, 0x11, 0x21, 0x30} {
			at := sim.Time(round*40+i*10) * sim.Millisecond
			train = append(train, idsProbeRecord(at, netif.LIN, id, "slave", 2))
		}
	}
	for i := 0; i < 8; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		train = append(train, idsProbeRecord(at, netif.Ethernet, 0x88B6, "", 8))
	}
	e.Train(&netif.Trace{Records: train})
	recs := []netif.Record{
		idsProbeRecord(0, netif.FlexRay, 9, "steer-ecu", 8),
		idsProbeRecord(0, netif.LIN, 0x10, "slave", 2),
		idsProbeRecord(0, netif.LIN, 0x11, "slave", 2),
		idsProbeRecord(0, netif.LIN, 0x21, "slave", 2),
		idsProbeRecord(0, netif.LIN, 0x30, "slave", 2),
		idsProbeRecord(0, netif.Ethernet, 0x88B6, "", 8),
	}
	for i := range recs {
		e.Observe(recs[i]) // settle window/interval state
	}
	return e, recs
}

// probeIDSObserve measures the trained observe hot path; the standing
// gate requires 0 allocs/op for both suites.
func probeIDSObserve(b *testing.B, s ids.Suite) {
	e, recs := idsProbeEngine(s)
	var at sim.Time = 10 * sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		r.At = at
		e.Observe(r)
		at += 5 * sim.Millisecond
	}
}

func probeIDSObserveBaseline(b *testing.B)    { probeIDSObserve(b, ids.BaselineSuite()) }
func probeIDSObserveMediumAware(b *testing.B) { probeIDSObserve(b, ids.MediumAwareSuite()) }

// campaignProbeFixture builds the same group-addressed bundle the
// internal/ota campaign benchmarks use: a director+image pair signing a
// single brake-firmware target for one model line. The vehicle is left
// one ApplyCached short of steady state so the cold probe installs and
// the memoized probe re-polls.
func campaignProbeFixture(b *testing.B) (*ota.Bundle, *ota.Client, *ota.VerifyCache) {
	b.Helper()
	d, err := ota.NewRepository("director")
	if err != nil {
		b.Fatal(err)
	}
	im, err := ota.NewRepository("image")
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("brake firmware v2 image bytes ........")
	target := ota.MakeTarget("brake-fw", 2, "brake-mcu-r2", payload)
	bundle := &ota.Bundle{
		Director: d.Sign("model-S", []ota.Target{target}, sim.Hour),
		Image:    im.Sign("", []ota.Target{target}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": payload},
	}
	c := ota.NewClient("VIN-probe", d.PublicKey(), im.PublicKey())
	c.Group = "model-S"
	c.AddECU("brake-mcu-r2", 1)
	return bundle, c, ota.NewVerifyCache()
}

// probeCampaignVerifyCold measures the per-poll cost with a fresh cache
// every iteration — every signature runs through ed25519 and the
// attestation is rebuilt, the pre-memoization fleet cost.
func probeCampaignVerifyCold(b *testing.B) {
	bundle, c, _ := campaignProbeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := ota.NewVerifyCache()
		if err := c.ApplyCached(bundle, sim.Minute, cold); err != nil && !errors.Is(err, ota.ErrNoUpdate) {
			b.Fatal(err)
		}
	}
}

// probeCampaignVerifyMemoized measures the steady-state campaign
// check-in: warm cache, every proof memoized. The standing gates pin
// this at 0 allocs/op and >= campaignMemoSpeedup over the cold probe.
func probeCampaignVerifyMemoized(b *testing.B) {
	bundle, c, vc := campaignProbeFixture(b)
	if err := c.ApplyCached(bundle, sim.Minute, vc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ApplyCached(bundle, sim.Minute, vc); !errors.Is(err, ota.ErrNoUpdate) {
			b.Fatal(err)
		}
	}
}

// probeFleetMerge isolates the merge point: folding one materialized
// per-vehicle registry into a warm fleet registry, the exact per-vehicle
// operation at the drive barrier. Steady state must be allocation-free.
func probeFleetMerge(b *testing.B) {
	pool := core.NewVehiclePool(compareCfg())
	v, err := pool.Acquire(fleet.VehicleSeed(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	shard := obs.NewRegistry()
	v.Instrument(nil, shard)
	if _, err := compareVehicle(0, v); err != nil {
		b.Fatal(err)
	}
	shard.Materialize()
	pool.Release(v)
	fleetReg := obs.NewRegistry()
	if err := fleetReg.Merge(shard); err != nil { // warm-up creates the keys
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fleetReg.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}
