//go:build unix && !race

// Race instrumentation slows the two drive paths unequally, so the ratio
// gate below only means something in an uninstrumented build.

package fleet

import (
	"runtime"
	"testing"

	"autosec/internal/benchgate"
)

// obsOverheadBudget is the metrics-plane acceptance gate: the fleet
// drive with merged metrics stays within 10% of the disabled path.
const obsOverheadBudget = 1.10

// driveAllocsCeiling is the per-vehicle allocation count of the fleet
// drive benchmarks with and without the metrics plane. Any increase is a
// regression.
const driveAllocsCeiling = 166

// TestFleetDriveBenchmarkGates holds BenchmarkFleetVehiclesPerSec and
// BenchmarkFleetVehiclesPerSecObs to their allocation ceiling and the
// metrics plane to its overhead budget over the disabled drive.
//
// The budget is checked on CPU time summed over interleaved rounds rather
// than on the fastest wall-clock run of each: on a 2-vCPU VM, partly with
// other test binaries running alongside, the unchanged tree's wall-clock
// best-of ratio crossed 1.10 in 2 of 100 five-round trials, its CPU ratio
// in none (highest 1.09).
func TestFleetDriveBenchmarkGates(t *testing.T) {
	// Each of the drive's GOMAXPROCS workers builds one vehicle (about
	// 430 allocations) before its pool starts resetting. Short drives also
	// overstate the metrics plane, whose shard arena grows with the drive
	// and spaces garbage collections further apart (9 per run against 22
	// with metrics off at 5000 vehicles per worker): on a 2-vCPU VM obs/off
	// reads about 1.18 at 1000 vehicles per worker, 1.04 at 2000 and
	// 0.92-1.01 at 5000, the regime the default one-second benchtime
	// measures.
	n := 5000 * runtime.GOMAXPROCS(0)
	res := benchgate.Run(t, 5, n, BenchmarkFleetVehiclesPerSec, BenchmarkFleetVehiclesPerSecObs)
	off, on := res[0], res[1]
	for _, r := range []struct {
		name string
		res  benchgate.Result
	}{{"off", off}, {"obs", on}} {
		t.Logf("%s: %v CPU/op, %d allocs/op", r.name, r.res.CPUPerOp(), r.res.AllocsPerOp())
		if a := r.res.AllocsPerOp(); a > driveAllocsCeiling {
			t.Errorf("fleet drive (%s): %d allocs/op, ceiling %d", r.name, a, driveAllocsCeiling)
		}
	}
	ratio := float64(on.CPUPerOp()) / float64(off.CPUPerOp())
	t.Logf("metrics-plane overhead: obs/off = %.3fx CPU (budget %.2fx)", ratio, obsOverheadBudget)
	if ratio > obsOverheadBudget {
		t.Errorf("metrics-plane overhead: obs/off = %.3fx CPU, budget %.2fx", ratio, obsOverheadBudget)
	}
}
