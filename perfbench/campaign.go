package main

import (
	"context"
	"hash/fnv"

	"autosec/internal/campaign"
)

// ota-campaign: E22's conservative strategy under the two-key attack
// with rotate-on-blast, at fleet scale. The attacked ring installs
// forged firmware, its blast fraction trips the threshold, the trust
// epoch rotates, and the rest of the fleet verifies the republished
// campaign cold once and memoized after. A campaign consumes its
// engine, so every round provisions a fresh one.
var otaCampaign = benchWorkload{
	name:      "ota-campaign",
	unit:      "checkin",
	singleUse: true,
	setup:     setupCampaign,
}

const (
	campaignFleet  = 20000
	campaignModels = 8
)

var campaignStrategy = campaign.Strategy{Name: "conservative", Canary: 16, Growth: 4, AbortThreshold: 0.5}

type campaignInst struct {
	eng *campaign.Engine
}

func setupCampaign(seed uint64, workers int, tr *tracer) (instance, error) {
	sp := tr.begin("campaign.New", noSpan)
	defer tr.end(sp)
	eng, err := campaign.New(campaign.Config{
		Fleet:         campaignFleet,
		Models:        campaignModels,
		Workers:       workers,
		Seed:          seed,
		Strategy:      campaignStrategy,
		Attack:        campaign.AttackPlan{Kind: campaign.AttackTwoKey, FromWave: 1},
		RotateAtWave:  -1,
		RotateOnBlast: true,
	})
	if err != nil {
		return nil, err
	}
	return &campaignInst{eng: eng}, nil
}

func (c *campaignInst) run(tr *tracer) (*result, error) {
	sp := tr.begin("campaign.Engine.Run", noSpan)
	res, err := c.eng.Run(context.Background())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &result{ops: campaignFleet, counts: map[string]int64{}}
	cnt := r.counts
	sp = tr.begin("obs.Registry.Snapshot", noSpan)
	for _, m := range res.Registry.Snapshot() {
		switch m.Key {
		case "campaign/checkins":
			r.units = int64(m.Value)
			cnt["campaign.checkins"] = int64(m.Value)
		case "kernel/steps":
			cnt["sim.events"] = int64(m.Value)
		}
	}
	tr.end(sp)
	cs := res.Cache
	cnt["ota.sig_lookups"] = cs.SigLookups
	cnt["ota.sig_verifies"] = cs.SigVerifies
	cnt["ota.attest_builds"] = cs.AttestBuilds
	cnt["ota.attest_lookups"] = cs.AttestLookups
	cnt["ota.memo_hit_ratio"] = ratio(cs.SigLookups-cs.SigVerifies, cs.SigLookups)
	cnt["campaign.rotations"] = int64(res.Rotations)
	cnt["campaign.rotate_failed"] = int64(len(res.RotateFailed))
	for o, n := range res.Outcomes {
		cnt["campaign.outcome."+o.String()] = int64(n)
	}
	h := fnv.New64a()
	h.Write([]byte(res.Render()))
	cnt["digest"] = int64(h.Sum64() >> 1)
	r.failed = c.oracle(res)
	return r, nil
}

// oracle checks the campaign's containment promise and returns how many
// vehicles violate it: the outcome tallies cover the whole fleet, the
// blast trips exactly one rotation, and attacker firmware (evil installs,
// and the hijacked vehicles that then fail re-provisioning) stays inside
// the one ring that triggered it while every other vehicle ends updated.
func (c *campaignInst) oracle(res *campaign.Result) int64 {
	total := 0
	for _, n := range res.Outcomes {
		total += n
	}
	if total != campaignFleet || res.Rotations != 1 {
		return campaignFleet
	}
	trigger := -1
	for i, w := range res.Waves {
		if w.BlastFraction > campaignStrategy.AbortThreshold {
			if trigger >= 0 {
				return campaignFleet
			}
			trigger = i
		}
	}
	if trigger < 0 || trigger+1 >= len(res.Waves) || !res.Waves[trigger+1].Rotated {
		return campaignFleet
	}
	ring := res.Waves[trigger].Wave
	var bad int64
	for _, st := range c.eng.States() {
		inRing := st.Idx >= ring.Lo && st.Idx < ring.Hi
		compromised := st.Outcome == campaign.OutcomeEvilInstall || st.Outcome == campaign.OutcomeFailed
		if (compromised && !inRing) || (!inRing && st.Outcome != campaign.OutcomeUpdated) {
			bad++
		}
	}
	return bad
}
