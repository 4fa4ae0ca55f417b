package autosec_test

import (
	"context"
	"runtime"
	"testing"

	"autosec/internal/experiments"
	"autosec/internal/runner"
)

// One sub-benchmark per registered experiment: `go test -bench
// Experiments` regenerates the full evaluation of DESIGN.md/EXPERIMENTS.md,
// and `-bench 'Experiments/E15$'` selects one table. Each iteration
// rebuilds the experiment from scratch in its golden configuration, so
// ns/op is the cost of reproducing that table. The table itself is
// printed once per sub-benchmark via b.Log (shown with -v).
func BenchmarkExperiments(b *testing.B) {
	for _, s := range experiments.Registry {
		b.Run(s.ID, func(b *testing.B) {
			var last *experiments.Table
			for i := 0; i < b.N; i++ {
				last = s.Run(1, experiments.Params{})
			}
			b.Log("\n" + last.String())
		})
	}
}

// Multi-seed replication, serial vs parallel. The pair measures (not
// assumes) the speedup of sharding replicates across the worker pool:
// compare ns/op between Serial and Parallel with
//
//	go test -bench 'Replication8Seeds' -benchtime 3x
//
// The suite is the two simulation-heavy bus experiments so one iteration
// stays around a second; the aggregation itself is microseconds.

func replicationSuite(seed uint64) []*experiments.Table {
	return []*experiments.Table{
		experiments.E1BusDoS(seed),
		experiments.E14BusOff(seed),
	}
}

func benchReplication(b *testing.B, workers int) {
	b.Helper()
	seeds := runner.Seeds(1, 8)
	var last []*experiments.Table
	for i := 0; i < b.N; i++ {
		tables, err := runner.ReplicateAggregate(context.Background(), replicationSuite, seeds, workers)
		if err != nil {
			b.Fatal(err)
		}
		last = tables
	}
	if len(last) > 0 {
		b.Log("\n" + last[0].String())
	}
}

func BenchmarkReplication8SeedsSerial(b *testing.B) { benchReplication(b, 1) }
func BenchmarkReplication8SeedsParallel(b *testing.B) {
	benchReplication(b, runtime.GOMAXPROCS(0))
}

// Intra-vehicle parallelism: one 8-zone E19 scenario at increasing worker
// counts. Unlike the replication pair above — which shards independent
// seeds — this speeds up a single simulated vehicle, so compare ns/op
// between Workers1 and WorkersMax with
//
//	go test -bench 'E19KernelParWorkers' -benchtime 3x
//
// On a single-core host the sweep measures synchronization overhead
// instead of speedup; both are honest numbers for BENCH_PR7.json.

func benchE19Workers(b *testing.B, workers int) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = experiments.E19KernelPar(1, experiments.Params{Workers: workers, Sweep: []int{8}})
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

func BenchmarkE19KernelParWorkers1(b *testing.B) { benchE19Workers(b, 1) }
func BenchmarkE19KernelParWorkers2(b *testing.B) { benchE19Workers(b, 2) }
func BenchmarkE19KernelParWorkersMax(b *testing.B) {
	benchE19Workers(b, runtime.GOMAXPROCS(0))
}
