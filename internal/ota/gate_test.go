//go:build unix && !race

// Race instrumentation slows the memoized and cold paths unequally, so
// the speedup gate below only means something in an uninstrumented build.

package ota

import (
	"testing"

	"autosec/internal/benchgate"
)

// coldVerifyAllocsCeiling is the allocation count of one cold campaign
// check-in: two ed25519 verifications plus a full attestation rebuild.
const coldVerifyAllocsCeiling = 4

// memoSpeedupFloor is the campaign engine's acceptance floor: the
// memoized check-in is at least this many times faster than the cold one.
const memoSpeedupFloor = 10.0

// TestCampaignVerifyBenchmarkGates holds
// BenchmarkCampaignVerifyThroughputCold to its allocation ceiling and
// BenchmarkCampaignVerifyThroughputMemoized to its speedup floor over it.
// CPU time counts each run's fixture set-up too (key generation, signing,
// one cold check-in: about a millisecond), so each benchmark runs long
// enough for that to stay small against what is counted; the set-up only
// ever lowers the measured speedup.
func TestCampaignVerifyBenchmarkGates(t *testing.T) {
	cold := benchgate.Run(t, 3, 500, BenchmarkCampaignVerifyThroughputCold)[0]
	memo := benchgate.Run(t, 3, 20000, BenchmarkCampaignVerifyThroughputMemoized)[0]
	t.Logf("cold: %v CPU/op, %d allocs/op; memoized: %v CPU/op, %d allocs/op",
		cold.CPUPerOp(), cold.AllocsPerOp(), memo.CPUPerOp(), memo.AllocsPerOp())
	if a := cold.AllocsPerOp(); a > coldVerifyAllocsCeiling {
		t.Errorf("cold verify: %d allocs/op, ceiling %d", a, coldVerifyAllocsCeiling)
	}
	speedup := float64(cold.CPUPerOp()) / float64(memo.CPUPerOp())
	t.Logf("memoization: %.1fx over cold (floor %.0fx)", speedup, memoSpeedupFloor)
	if speedup < memoSpeedupFloor {
		t.Errorf("memoization: %.1fx over cold, floor %.0fx", speedup, memoSpeedupFloor)
	}
}
