package runner

import (
	"context"
	"runtime"
	"testing"

	"autosec/internal/experiments"
)

// The runner's own guarantee: sharding a suite's replicates across a
// parallel pool changes nothing. Every per-seed table is bit-for-bit the
// table a serial run of that seed produces, and the aggregated tables are
// byte-identical between -par 1 and -par N. The suite is two cheap
// stochastic experiments — that each registered experiment is
// deterministic per seed is internal/experiments' TestRegistry.
func TestParallelReplicationDeterministic(t *testing.T) {
	suite := func(seed uint64) []*experiments.Table {
		return []*experiments.Table{experiments.E1BusDoS(seed), experiments.E14BusOff(seed)}
	}
	seeds := Seeds(1, 4)
	par := runtime.GOMAXPROCS(0)

	serialPerSeed, err := Replicate(context.Background(), suite, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parPerSeed, err := Replicate(context.Background(), suite, seeds, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if len(serialPerSeed[i]) != len(parPerSeed[i]) {
			t.Fatalf("seed %d: %d tables serial vs %d parallel", seeds[i], len(serialPerSeed[i]), len(parPerSeed[i]))
		}
		for j := range serialPerSeed[i] {
			a, b := serialPerSeed[i][j].String(), parPerSeed[i][j].String()
			if a != b {
				t.Fatalf("seed %d experiment %s: serial and parallel replicates differ:\n--- serial\n%s\n--- parallel\n%s",
					seeds[i], serialPerSeed[i][j].ID, a, b)
			}
		}
	}

	serialAgg, err := Aggregate(serialPerSeed)
	if err != nil {
		t.Fatal(err)
	}
	parAgg, err := Aggregate(parPerSeed)
	if err != nil {
		t.Fatal(err)
	}
	for j := range serialAgg {
		a, b := serialAgg[j].String(), parAgg[j].String()
		if a != b {
			t.Fatalf("aggregated %s differs between par=1 and par=%d:\n--- par=1\n%s\n--- par=%d\n%s",
				serialAgg[j].ID, par, a, par, b)
		}
	}
}
