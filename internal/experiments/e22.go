package experiments

import (
	"context"
	"fmt"

	"autosec/internal/campaign"
)

// e22 fleet shape: big enough that wave structure and skew populations
// are visible, small enough to keep the full 12-campaign sweep cheap.
const (
	e22Fleet  = 2000
	e22Models = 4
)

// E22 sweeps rollout strategy × mid-campaign attack over the fleet OTA
// campaign engine: a 2000-vehicle, 4-model fleet updated in staged waves
// while the distribution channel is honest, freezing, replaying stale
// metadata, or signing with stolen keys. The cells quantify the paper's
// secure-update argument at fleet scale: verification stops everything
// short of a two-key compromise (evil installs stay 0), version skew is
// where stale-metadata replay actually bites (the rollback row's stale
// installs land exactly on the vehicles that missed the previous
// campaign), and once verification is out of the game the rollout shape
// is the only control left — the conservative strategy's abort threshold
// bounds the two-key blast radius at one ring, and key rotation turns
// the blast into a bounded failed set while the rest of the fleet
// completes under the new trust epoch. The cache columns pin the
// verify-once-per-campaign economics: cold signature checks stay at
// published-artifact scale while lookups run at fleet scale.
//
// p.Workers sets each wave's fleet worker count (0 = the serial
// reference, 1 worker). Everything in the table is index-deterministic,
// so the rendered table is byte-identical at any worker count.
func E22Campaign(seed uint64, p Params) *Table {
	workers := p.Workers
	if workers == 0 {
		workers = 1
	}
	t := &Table{
		ID:    "E22",
		Title: "Fleet OTA campaigns under attack: staged rollout × attack matrix (§6)",
		Claim: "staged waves with abort thresholds and key rotation bound the blast radius of update-channel compromise; memoized verification serves the fleet at published-artifact cost",
		Columns: []string{"strategy", "attack", "waves",
			"updated", "pending", "stale", "evil", "frozen", "blocked", "failed",
			"response", "cold verifies", "lookups"},
	}
	strategies := []campaign.Strategy{
		{Name: "conservative", Canary: 16, Growth: 4, AbortThreshold: 0.5},
		{Name: "aggressive", Canary: 256, Growth: 8, AbortThreshold: 0},
	}
	type attackRow struct {
		name   string
		plan   campaign.AttackPlan
		rotate bool
	}
	attacks := []attackRow{
		{"none", campaign.AttackPlan{Kind: campaign.AttackNone}, false},
		{"freeze", campaign.AttackPlan{Kind: campaign.AttackFreeze, FromWave: 1}, false},
		{"rollback", campaign.AttackPlan{Kind: campaign.AttackRollback, FromWave: 1}, false},
		{"imagekey", campaign.AttackPlan{Kind: campaign.AttackImageKey, FromWave: 1}, false},
		{"twokey", campaign.AttackPlan{Kind: campaign.AttackTwoKey, FromWave: 1}, false},
		{"twokey+rotate", campaign.AttackPlan{Kind: campaign.AttackTwoKey, FromWave: 1}, true},
	}
	for _, strat := range strategies {
		for _, a := range attacks {
			cfg := campaign.Config{
				Fleet:         e22Fleet,
				Models:        e22Models,
				Workers:       workers,
				Seed:          seed,
				Strategy:      strat,
				Attack:        a.plan,
				RotateAtWave:  -1,
				RotateOnBlast: a.rotate,
			}
			eng, err := campaign.New(cfg)
			if err != nil {
				panic(fmt.Sprintf("E22: %s/%s: %v", strat.Name, a.name, err))
			}
			res, err := eng.Run(context.Background())
			if err != nil {
				panic(fmt.Sprintf("E22: %s/%s: %v", strat.Name, a.name, err))
			}
			response := "-"
			switch {
			case res.Aborted:
				response = fmt.Sprintf("abort@%d", res.AbortWave)
			case res.Rotations > 0:
				response = fmt.Sprintf("rotate x%d", res.Rotations)
			}
			t.AddRow(strat.Name, a.name, len(res.Waves),
				res.Outcomes[campaign.OutcomeUpdated],
				res.Outcomes[campaign.OutcomePending],
				res.Outcomes[campaign.OutcomeStaleInstall],
				res.Outcomes[campaign.OutcomeEvilInstall],
				res.Outcomes[campaign.OutcomeFrozen],
				res.Outcomes[campaign.OutcomeBlocked],
				res.Outcomes[campaign.OutcomeFailed],
				response,
				int(res.Cache.SigVerifies),
				int(res.Cache.SigLookups))
		}
	}
	return t
}
