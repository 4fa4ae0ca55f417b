// Package campaign is the fleet-scale OTA campaign engine: it rolls a
// firmware generation out across a pooled vehicle fleet in staged waves
// (canary → rings → full fleet), models version skew (vehicles that
// missed the previous campaign join mid-flight at older firmware),
// injects mid-campaign attacks on the distribution channel (metadata
// freeze and rollback replay, single- and two-key signing compromise)
// and exercises the recovery actions — abort thresholds and trust-epoch
// key rotation via fleet.RotateKeys.
//
// The paper's extensibility argument makes secure update the mechanism
// that keeps a deployed fleet securable; this package asks the
// fleet-shaped follow-up questions. What verification stops (everything
// short of a two-key compromise), the rollout shape must contain
// (waves bound the blast radius, the abort threshold stops the bleed,
// rotation revokes the stolen keys). The campaign backend serves
// millions of verifications of the same few signed artifacts, so the
// engine verifies through an ota.VerifyCache — one cold signature check
// and one attestation per published artifact, memoized for the rest of
// the fleet.
//
// Everything the engine reports is deterministic in (Config.Seed,
// Config.Fleet, wave plan): vehicles are driven via fleet.DriveObs,
// so per-vehicle results and merged metrics fold in vehicle-index order
// whatever the worker count, and every behavioural predicate (late
// joiners, check-in jitter) keys on the vehicle index or its derived
// seed, never on scheduling.
package campaign

import (
	"context"
	"fmt"
	"strings"

	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/obs"
	"autosec/internal/ota"
	"autosec/internal/she"
	"autosec/internal/sim"
)

// Campaign timing, in each vehicle's own virtual clock (pool-reset
// kernels start at 0 every wave). Stale generations expire inside the
// wave window so a second check-in detects freeze/rollback replay; the
// current campaign outlives the wave.
const (
	// checkinEarliest..checkinLatest bounds the jittered first check-in.
	checkinEarliest = sim.Minute
	checkinLatest   = 5 * sim.Minute
	// recheckDelay separates the second check-in from the first.
	recheckDelay = 40 * sim.Minute
	// StaleExpiry is the freshness window of superseded generations.
	StaleExpiry = 30 * sim.Minute
	// CampaignExpiry is the freshness window of the current campaign.
	CampaignExpiry = 2 * sim.Hour
	// waveHorizon bounds each vehicle's kernel run.
	waveHorizon = 50 * sim.Minute
)

// Strategy is the rollout shape: wave sizing plus the abort rule.
type Strategy struct {
	Name string
	// Canary is the first wave's size; Growth the ring growth factor
	// (see fleet.StageWaves).
	Canary int
	Growth int
	// AbortThreshold aborts the campaign when a wave's compromised
	// fraction (malicious or stale installs over wave size) exceeds it;
	// 0 disables the abort rule.
	AbortThreshold float64
}

// Config parameterizes one campaign run.
type Config struct {
	Fleet    int
	Models   int
	Workers  int
	Seed     uint64
	Strategy Strategy
	Attack   AttackPlan
	// RotateAtWave rotates the trust epoch immediately before the given
	// wave index (-1: never). Rotation re-provisions every vehicle's SHE
	// master via fleet.RotateKeys — hijacked vehicles fail out — then
	// replaces both repository keys and republishes the campaign.
	RotateAtWave int
	// RotateOnBlast additionally triggers the rotation as a *response*:
	// after the first wave whose compromised fraction exceeds the abort
	// threshold, the campaign rotates instead of aborting.
	RotateOnBlast bool
}

// Outcome is a vehicle's terminal campaign state.
type Outcome int

const (
	// OutcomePending: not yet driven (campaign aborted before its wave).
	OutcomePending Outcome = iota
	// OutcomeUpdated: installed the current campaign firmware.
	OutcomeUpdated
	// OutcomeStaleInstall: accepted stale-but-signed superseded firmware
	// (the rollback blast on vehicles that missed the baseline).
	OutcomeStaleInstall
	// OutcomeEvilInstall: installed attacker firmware (two-key forge).
	OutcomeEvilInstall
	// OutcomeFrozen: answered "up to date" all wave, then saw its
	// metadata expire — a detected freeze, firmware never updated.
	OutcomeFrozen
	// OutcomeBlocked: rejected an attack bundle outright and could not
	// recover within the wave.
	OutcomeBlocked
	// OutcomeFailed: fell out of the trust domain at rotation (hijacked
	// SHE master) — needs out-of-band recovery.
	OutcomeFailed
)

// String names the outcome for tables and reports.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeUpdated:
		return "updated"
	case OutcomeStaleInstall:
		return "stale-install"
	case OutcomeEvilInstall:
		return "evil-install"
	case OutcomeFrozen:
		return "frozen"
	case OutcomeBlocked:
		return "blocked"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// VehicleState is a vehicle's persistent campaign-side state across
// waves: the verifier (with its anti-rollback counters), skew class and
// terminal outcome. The fleet driver's core.Vehicle is per-wave scratch;
// this is what survives.
type VehicleState struct {
	Idx    int
	Model  int
	VIN    string
	Client *ota.Client
	// LateJoiner marks a vehicle that missed the baseline campaign and
	// joins this one at factory firmware — the version-skew population.
	LateJoiner bool
	Outcome    Outcome
}

// WaveReport tallies one driven wave.
type WaveReport struct {
	Wave     fleet.Wave
	Attacked bool
	// Rotated marks the trust-epoch rotation that happened immediately
	// before this wave.
	Rotated bool
	// Tallies over the wave's vehicles.
	Updated, StaleInstalls, EvilInstalls, Frozen, Blocked int
	// AttackRejected counts first check-ins that rejected an attack
	// bundle outright (the verifier-level detection signal).
	AttackRejected int
	// BlastFraction is (EvilInstalls+StaleInstalls)/size — the number the
	// abort threshold watches.
	BlastFraction float64
}

// Result is one campaign run's deterministic summary.
type Result struct {
	Waves []WaveReport
	// Aborted/AbortWave record the abort rule firing; waves after
	// AbortWave were never driven.
	Aborted   bool
	AbortWave int
	// Rotations counts trust-epoch rotations; RotateFailed lists, in
	// fleet slice order, the VINs that failed re-provisioning (hijacked).
	Rotations    int
	RotateFailed []string
	// Outcomes tallies terminal vehicle outcomes over the whole fleet.
	Outcomes map[Outcome]int
	// Cache is the verification-cache traffic: Lookups at fleet scale,
	// Verifies/Builds at published-artifact scale.
	Cache ota.CacheStats
	// Registry is the campaign-merged metrics registry (wave registries
	// folded in wave order, each wave folded in vehicle-index order).
	Registry *obs.Registry
}

// Engine runs one campaign over one fleet.
type Engine struct {
	cfg     Config
	backend *Backend
	fleet   *fleet.Fleet
	states  []*VehicleState
	cache   *ota.VerifyCache
	forged  *forged
	waves   []fleet.Wave
}

// New provisions the fleet (per-device SHE keys), builds the backend's
// published generations, wires a verifier per vehicle and installs the
// firmware history: factory firmware everywhere, baseline on everyone
// except the late joiners (every 7th vehicle starting at index 3 — an
// index predicate, so the skew population is identical at any worker
// count and any seed).
func New(cfg Config) (*Engine, error) {
	if cfg.Fleet <= 0 {
		return nil, fmt.Errorf("campaign: fleet size must be positive, got %d", cfg.Fleet)
	}
	if cfg.Models < 1 {
		cfg.Models = 1
	}
	backend, err := NewBackend(cfg.Models, StaleExpiry, CampaignExpiry)
	if err != nil {
		return nil, err
	}
	var master [16]byte
	copy(master[:], fmt.Sprintf("campaign-%08x", uint32(cfg.Seed)))
	e := &Engine{
		cfg:     cfg,
		backend: backend,
		fleet:   fleet.New(cfg.Fleet, cfg.Models, fleet.PerDevice, master),
		cache:   ota.NewVerifyCache(),
		waves:   fleet.StageWaves(cfg.Fleet, cfg.Strategy.Canary, cfg.Strategy.Growth),
	}
	dirKey, imgKey := backend.Keys()
	e.states = make([]*VehicleState, cfg.Fleet)
	for i := 0; i < cfg.Fleet; i++ {
		fv := e.fleet.Vehicles[i]
		c := ota.NewClient(fv.VIN, dirKey, imgKey)
		c.Group = Group(fv.Model)
		c.AddECU(hwid(fv.Model), 0)
		st := &VehicleState{
			Idx: i, Model: fv.Model, VIN: fv.VIN, Client: c,
			LateJoiner: i%7 == 3,
		}
		// Firmware history: everyone took the factory generation; the
		// baseline campaign reached everyone except the late joiners.
		if err := c.ApplyCached(backend.Bundle(GenFactory, fv.Model), 1, e.cache); err != nil {
			return nil, fmt.Errorf("campaign: provisioning vehicle %d: %w", i, err)
		}
		if !st.LateJoiner {
			if err := c.ApplyCached(backend.Bundle(GenBaseline, fv.Model), 2, e.cache); err != nil {
				return nil, fmt.Errorf("campaign: baseline on vehicle %d: %w", i, err)
			}
		}
		e.states[i] = st
	}
	if cfg.Attack.Kind != AttackNone {
		e.forged = forge(cfg.Attack.Kind, backend, CampaignExpiry)
	}
	return e, nil
}

// Waves returns the campaign's wave plan.
func (e *Engine) Waves() []fleet.Wave { return e.waves }

// States exposes the per-vehicle campaign states (index order).
func (e *Engine) States() []*VehicleState { return e.states }

// Cache exposes the campaign's verification cache (for stats assertions).
func (e *Engine) Cache() *ota.VerifyCache { return e.cache }

// served returns the two bundles the update channel delivers to one
// vehicle during wave wi: the first check-in's bundle and the re-check's.
func (e *Engine) served(wi int, st *VehicleState) (first, second *ota.Bundle) {
	legit := e.backend.Current(st.Model)
	if !e.cfg.Attack.active(wi) {
		return legit, legit
	}
	switch e.cfg.Attack.Kind {
	case AttackFreeze:
		// Replay the vehicle's own current metadata, both check-ins: the
		// second lands after StaleExpiry and surfaces the freeze.
		cur := e.backend.Bundle(GenBaseline, st.Model)
		if st.LateJoiner {
			cur = e.backend.Bundle(GenFactory, st.Model)
		}
		return cur, cur
	case AttackRollback:
		// Replay the superseded baseline to the whole wave.
		stale := e.backend.Bundle(GenBaseline, st.Model)
		return stale, stale
	case AttackImageKey, AttackTwoKey:
		// The forged bundle first; by the re-check the vehicle has fallen
		// back to an honest channel (the detection path for imagekey, and
		// for twokey the fallback only matters once rotation has revoked
		// the stolen keys).
		return e.forged.bundles[st.Model], legit
	default:
		return legit, legit
	}
}

// vehicleResult is one vehicle's wave outcome, computed inside the
// drive and classified deterministically from the two check-in errors.
type vehicleResult struct {
	outcome Outcome
	// evil marks an attacker-firmware install (SHE hijack follows).
	evil bool
	// firstRejected marks a first check-in that rejected its bundle.
	firstRejected bool
}

// classify maps the two check-in results onto a terminal outcome.
// installedCurrent reports whether the client now holds the current
// campaign generation's counters.
func classify(first, second error, evilInstalled bool) vehicleResult {
	switch {
	case evilInstalled:
		return vehicleResult{outcome: OutcomeEvilInstall, evil: true}
	case first == nil:
		// The first check-in installed. Whatever the re-check said —
		// up to date, or "your metadata expired" because the channel kept
		// replaying a stale bundle — the install is the outcome; whether
		// it was the *current* firmware is the caller's reclassification
		// (stale installs look exactly like this).
		return vehicleResult{outcome: OutcomeUpdated}
	case first == ota.ErrNoUpdate && isExpired(second):
		return vehicleResult{outcome: OutcomeFrozen}
	case isRejected(first) && second == nil:
		// Attack bundle rejected, honest re-check installed: recovered.
		return vehicleResult{outcome: OutcomeUpdated}
	case isRejected(first) && second != nil:
		return vehicleResult{outcome: OutcomeBlocked}
	default:
		return vehicleResult{outcome: OutcomeBlocked}
	}
}

func isExpired(err error) bool {
	return err != nil && strings.Contains(err.Error(), "expired")
}

func isRejected(err error) bool {
	return err != nil && err != ota.ErrNoUpdate
}

// Run drives the campaign to completion (or abort) and returns the
// deterministic result.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	res := &Result{
		AbortWave: -1,
		Outcomes:  make(map[Outcome]int),
		Registry:  obs.NewRegistry(),
	}
	rotated := false
	justRotated := false
	for wi, w := range e.waves {
		if e.cfg.RotateAtWave == wi && !rotated {
			if err := e.rotate(res); err != nil {
				return nil, err
			}
			rotated, justRotated = true, true
		}
		report, err := e.runWave(ctx, wi, w, res.Registry)
		if err != nil {
			return nil, err
		}
		report.Rotated = justRotated
		justRotated = false
		res.Waves = append(res.Waves, *report)
		// Containment rules, in response order: rotate if configured,
		// else abort.
		if e.cfg.Strategy.AbortThreshold > 0 && report.BlastFraction > e.cfg.Strategy.AbortThreshold {
			if e.cfg.RotateOnBlast && !rotated {
				if err := e.rotate(res); err != nil {
					return nil, err
				}
				rotated, justRotated = true, true
				continue
			}
			res.Aborted = true
			res.AbortWave = wi
			break
		}
	}
	for _, st := range e.states {
		res.Outcomes[st.Outcome]++
	}
	res.Cache = e.cache.Stats()
	return res, nil
}

// runWave drives one wave's vehicles through their check-ins via the
// pooled fleet driver and folds the wave's metrics into campaignReg.
func (e *Engine) runWave(ctx context.Context, wi int, w fleet.Wave, campaignReg *obs.Registry) (*WaveReport, error) {
	d := fleet.Driver{
		Cfg:     core.Config{VIN: "CAMPAIGN", Seed: e.cfg.Seed},
		N:       e.cfg.Fleet,
		Workers: e.cfg.Workers,
	}
	results, obsRes, err := fleet.DriveObs(ctx, d, fleet.ObsOptions{Metrics: true}, w,
		func(idx int, v *core.Vehicle, reg *obs.Registry) (vehicleResult, error) {
			st := e.states[idx]
			// Register the full instrument set up front so every vehicle
			// shard has the same shape and the barrier fold stays on the
			// accumulate fast path.
			checkins := reg.Counter("campaign/checkins")
			updated := reg.Counter("campaign/updated")
			uptodate := reg.Counter("campaign/uptodate")
			stale := reg.Counter("campaign/stale_install")
			evil := reg.Counter("campaign/evil_install")
			frozen := reg.Counter("campaign/frozen_detected")
			blocked := reg.Counter("campaign/blocked")

			first, second := e.served(wi, st)
			k := v.Kernel
			stream := k.Stream("campaign")
			t1 := checkinEarliest + stream.Duration(0, checkinLatest-checkinEarliest)
			t2 := t1 + recheckDelay
			var err1, err2 error
			k.At(t1, func() {
				checkins.Inc()
				err1 = st.Client.ApplyCached(first, k.Now(), e.cache)
			})
			k.At(t2, func() {
				checkins.Inc()
				err2 = st.Client.ApplyCached(second, k.Now(), e.cache)
			})
			if err := k.RunUntil(waveHorizon); err != nil {
				return vehicleResult{}, err
			}
			evilInstalled := e.cfg.Attack.Kind == AttackTwoKey && e.cfg.Attack.active(wi) &&
				err1 == nil && e.backend.Epoch == 0
			r := classify(err1, err2, evilInstalled)
			r.firstRejected = isRejected(err1)
			switch r.outcome {
			case OutcomeUpdated:
				updated.Inc()
			case OutcomeStaleInstall:
				stale.Inc()
			case OutcomeEvilInstall:
				evil.Inc()
			case OutcomeFrozen:
				frozen.Inc()
			case OutcomeBlocked:
				blocked.Inc()
			}
			if err1 == ota.ErrNoUpdate || err2 == ota.ErrNoUpdate {
				uptodate.Inc()
			}
			return r, nil
		})
	if err != nil {
		return nil, fmt.Errorf("campaign: wave %d %v: %w", wi, w, err)
	}
	if err := campaignReg.Merge(obsRes.Registry); err != nil {
		return nil, fmt.Errorf("campaign: merging wave %d metrics: %w", wi, err)
	}

	report := &WaveReport{Wave: w, Attacked: e.cfg.Attack.active(wi)}
	for i, r := range results {
		idx := w.Lo + i
		st := e.states[idx]
		// Rollback replay that *installed* means the vehicle accepted
		// superseded firmware: reclassify the skew population's success.
		if r.outcome == OutcomeUpdated && e.cfg.Attack.active(wi) &&
			e.cfg.Attack.Kind == AttackRollback &&
			st.Client.Installed.Value > installsBefore(st) {
			r.outcome = OutcomeStaleInstall
		}
		st.Outcome = r.outcome
		if r.firstRejected && report.Attacked {
			report.AttackRejected++
		}
		switch r.outcome {
		case OutcomeUpdated:
			report.Updated++
		case OutcomeStaleInstall:
			report.StaleInstalls++
		case OutcomeEvilInstall:
			report.EvilInstalls++
			e.hijack(idx)
		case OutcomeFrozen:
			report.Frozen++
		case OutcomeBlocked:
			report.Blocked++
		}
	}
	report.BlastFraction = float64(report.EvilInstalls+report.StaleInstalls) / float64(w.Size())
	return report, nil
}

// installsBefore returns how many installs the vehicle had before its
// wave: factory plus, unless it is a late joiner, the baseline.
func installsBefore(st *VehicleState) int64 {
	if st.LateJoiner {
		return 1
	}
	return 2
}

// hijack models the attacker consolidating an evil install: with their
// firmware running, they rotate the vehicle's SHE master to a key the
// OEM does not know, so the vehicle later fails fleet.RotateKeys.
func (e *Engine) hijack(idx int) {
	fv := e.fleet.Vehicles[idx]
	var evil [16]byte
	copy(evil[:], "attacker-owned!!")
	_, _, counter := fv.Engine.KeyState(she.MasterECUKey)
	req, err := she.BuildUpdate(fv.Engine.UID(), she.MasterECUKey, she.MasterECUKey,
		fv.MasterKey(), evil, counter+1, she.Flags{})
	if err == nil {
		_, _ = fv.Engine.LoadKey(req)
	}
}

// rotate is the recovery action: re-provision every vehicle's SHE master
// from a new production master (hijacked vehicles fail out, in fleet
// slice order), rotate the repository keys, republish the campaign under
// the new epoch and move every still-trusted verifier onto the new keys.
// Completed waves are not re-driven and their cached verifications are
// never repeated — the new epoch's artifacts simply verify cold once.
func (e *Engine) rotate(res *Result) error {
	var newMaster [16]byte
	copy(newMaster[:], fmt.Sprintf("rotated!-%06x", uint32(res.Rotations+1)))
	_, failed := e.fleet.RotateKeys(newMaster)
	res.Rotations++
	res.RotateFailed = append(res.RotateFailed, failed...)
	failedSet := make(map[string]bool, len(failed))
	for _, vin := range failed {
		failedSet[vin] = true
	}
	if err := e.backend.RotateTrust(CampaignExpiry); err != nil {
		return err
	}
	dirKey, imgKey := e.backend.Keys()
	for _, st := range e.states {
		if failedSet[st.VIN] {
			st.Outcome = OutcomeFailed
			continue
		}
		st.Client.SetKeys(dirKey, imgKey)
	}
	return nil
}

// Render writes the campaign result as a deterministic text report.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "waves=%d aborted=%v abort_wave=%d rotations=%d rotate_failed=%d\n",
		len(r.Waves), r.Aborted, r.AbortWave, r.Rotations, len(r.RotateFailed))
	for i, w := range r.Waves {
		fmt.Fprintf(&sb, "wave %d %v attacked=%v rotated=%v updated=%d stale=%d evil=%d frozen=%d blocked=%d rejected=%d blast=%.3f\n",
			i, w.Wave, w.Attacked, w.Rotated, w.Updated, w.StaleInstalls, w.EvilInstalls, w.Frozen, w.Blocked, w.AttackRejected, w.BlastFraction)
	}
	for o := OutcomePending; o <= OutcomeFailed; o++ {
		if n := r.Outcomes[o]; n > 0 {
			fmt.Fprintf(&sb, "outcome %s=%d\n", o, n)
		}
	}
	fmt.Fprintf(&sb, "cache sig_lookups=%d sig_verifies=%d attest_lookups=%d attest_builds=%d\n",
		r.Cache.SigLookups, r.Cache.SigVerifies, r.Cache.AttestLookups, r.Cache.AttestBuilds)
	return sb.String()
}
