package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"autosec/internal/experiments"
	"autosec/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the scenario narrative goldens under testdata/")

// narrate runs one scenario at seed 1 into a buffer exactly as
// `autosim run -seed 1 [-metrics] <name>` prints it to stdout: the
// narrative, then a blank line and the metrics table when metrics is on.
// Host-time reporting goes to stderr and is not captured.
func narrate(name string, metrics bool) string {
	var buf bytes.Buffer
	var ob obsPair
	if metrics {
		ob.reg = obs.NewRegistry()
	}
	scenarios[name].run(&buf, 1, ob)
	if metrics {
		fmt.Fprintln(&buf)
		fmt.Fprint(&buf, experiments.MetricsTable(ob.reg.Snapshot()))
	}
	return buf.String()
}

// checkNarrative compares got against testdata/<file>, or rewrites it
// under -update.
func checkNarrative(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden.\n--- got\n%s\n--- want\n%s\n(if intentional, regenerate with -update)", file, got, want)
	}
}

// TestScenarioGoldens pins every scenario's seed-1 narrative, plain and
// with a metrics registry (kernel/steps included), byte for byte.
// Regenerate with
//
//	go test ./cmd/autosim -update
func TestScenarioGoldens(t *testing.T) {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			checkNarrative(t, name+".golden", narrate(name, false))
			checkNarrative(t, name+".metrics.golden", narrate(name, true))
		})
	}
}

// TestZonalKernelParGolden pins the per-zone-kernel zonal narrative
// (-kernelpar N) and requires the same bytes at 1 and 8 workers.
func TestZonalKernelParGolden(t *testing.T) {
	defer func(old int) { kernelPar = old }(kernelPar)
	kernelPar = 1
	serial := narrate("zonal-compromise", true)
	checkNarrative(t, "zonal-compromise.kernelpar.metrics.golden", serial)
	kernelPar = 8
	if par := narrate("zonal-compromise", true); par != serial {
		t.Fatalf("-kernelpar 8 diverged from -kernelpar 1:\n--- 1\n%s\n--- 8\n%s", serial, par)
	}
}
