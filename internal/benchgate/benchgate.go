//go:build unix

// Package benchgate runs a package's own Benchmark functions from one of
// its tests, so an allocation ceiling or a cost ratio between two
// benchmarks is checked by go test next to the benchmark that defines it.
package benchgate

import (
	"flag"
	"fmt"
	"syscall"
	"testing"
	"time"
)

// Result is one benchmark's totals over every round of Run.
type Result struct {
	N      int           // iterations
	Allocs uint64        // heap allocations
	CPU    time.Duration // process CPU time, user plus system, set-up included
}

func (r Result) AllocsPerOp() int64      { return int64(r.Allocs) / int64(r.N) }
func (r Result) CPUPerOp() time.Duration { return r.CPU / time.Duration(r.N) }

// Run runs each benchmark in fs through testing.Benchmark at exactly n
// iterations, rounds times, interleaved so a slow spell lands on all of
// them, and returns their totals in fs order. Cost is CPU time: other
// processes on the machine, such as the rest of go test ./..., inflate
// wall-clock time but not it. Run sets -test.benchtime while it runs.
func Run(t testing.TB, rounds, n int, fs ...func(*testing.B)) []Result {
	t.Helper()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = flag.Set("test.benchtime", prev) }() // prev came from this flag, so it parses
	res := make([]Result, len(fs))
	for r := 0; r < rounds; r++ {
		for i, f := range fs {
			var before, after syscall.Rusage
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &before) // cannot fail for RUSAGE_SELF
			b := testing.Benchmark(f)
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &after)
			if b.N == 0 {
				t.Fatalf("benchgate: benchmark %d of %d failed", i+1, len(fs))
			}
			res[i].N += b.N
			res[i].Allocs += b.MemAllocs
			res[i].CPU += time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
		}
	}
	return res
}
