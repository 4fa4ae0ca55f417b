package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables under testdata/")

// The repository's reproducibility promise, checked for every registered
// experiment by construction: an experiment × property matrix generated
// from Registry. Every spec gets
//
//	golden     its seed-1 table equals testdata/<ID>.golden
//	rerun      a second seed-1 run renders the same bytes
//
// and every spec declaring AxisWorkers additionally gets
//
//	workers=8  a seed-1 run on 8 kernel or fleet workers renders the
//	           same bytes
//
// `go test -run TestRegistry -v` prints the matrix as subtest names. A
// behavioural change to any subsystem that feeds an experiment shows up
// in the golden column as a readable table diff; regenerate
// intentionally with:
//
//	go test ./internal/experiments -run TestRegistry -update
//
// Multi-seed replication across a worker pool is internal/runner's
// concern; its test checks the runner's own merge.

// property is one column of the matrix.
type property struct {
	name    string
	applies func(Spec) bool
	check   func(t *testing.T, s Spec)
}

var properties = []property{
	{"golden", func(Spec) bool { return true }, checkGolden},
	{"rerun", func(Spec) bool { return true }, func(t *testing.T, s Spec) {
		matchesGolden(t, s, "rerun", Params{})
	}},
	{"workers=8", func(s Spec) bool { return s.Axes&AxisWorkers != 0 }, func(t *testing.T, s Spec) {
		matchesGolden(t, s, "workers=8", Params{Workers: 8})
	}},
}

func TestRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite more than twice; skipped in -short mode")
	}
	for _, s := range Registry {
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			for _, p := range properties {
				if p.applies(s) {
					t.Run(p.name, func(t *testing.T) {
						t.Parallel()
						p.check(t, s)
					})
				}
			}
		})
	}
}

// TestGoldenTables and TestExperimentsDeterministic select the golden
// and rerun columns alone, so `-run TestGoldenTables -update` rewrites
// just the golden files. They share TestRegistry's memoized runs and
// cost nothing extra after it.
func TestGoldenTables(t *testing.T)             { registryColumn(t, "golden") }
func TestExperimentsDeterministic(t *testing.T) { registryColumn(t, "rerun") }

func registryColumn(t *testing.T, name string) {
	if testing.Short() {
		t.Skip("runs the full suite; skipped in -short mode")
	}
	for _, p := range properties {
		if p.name != name {
			continue
		}
		for _, s := range Registry {
			if p.applies(s) {
				t.Run(s.ID, func(t *testing.T) {
					t.Parallel()
					p.check(t, s)
				})
			}
		}
	}
}

func checkGolden(t *testing.T, s Spec) {
	tbl := seed1(t, s.ID)
	if tbl.ID != s.ID {
		t.Fatalf("spec %s renders a table with ID %q", s.ID, tbl.ID)
	}
	path := filepath.Join("testdata", s.ID+".golden")
	got := tbl.String()
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
		t.Errorf("%s drifted from its golden table.\n--- got\n%s\n--- want\n%s\n(if intentional, regenerate with -update)",
			s.ID, got, want)
	}
}

// matchesGolden runs s at seed 1 with p (once per key) and requires the
// bytes of the golden run.
func matchesGolden(t *testing.T, s Spec, key string, p Params) {
	got := memo(s.ID+"/"+key, func() *Table { return s.Run(1, p) }).String()
	if want := seed1(t, s.ID).String(); got != want {
		t.Fatalf("%s %s diverged from the golden run:\n--- golden\n%s\n--- %s\n%s", s.ID, key, want, key, got)
	}
}

// memoCell holds one experiment run shared by every test that needs it.
type memoCell struct {
	once sync.Once
	tbl  *Table
}

var memoCells sync.Map // key -> *memoCell

// memo returns run's table, computing it once per key per test binary.
func memo(key string, run func() *Table) *Table {
	c, _ := memoCells.LoadOrStore(key, new(memoCell))
	mc := c.(*memoCell)
	mc.once.Do(func() { mc.tbl = run() })
	return mc.tbl
}

// seed1 returns experiment id's seed-1 table at zero Params — the run
// the golden file pins — shared by the golden column and the shape
// tests.
func seed1(t *testing.T, id string) *Table {
	t.Helper()
	s, ok := Lookup(id)
	if !ok {
		t.Fatalf("no registered experiment %q", id)
	}
	return memo(id+"/golden", func() *Table { return s.Run(1, Params{}) })
}

// Distinct seeds actually perturb the stochastic experiments (guards
// against a silently ignored seed parameter).
func TestSeedReachesTheWorkloads(t *testing.T) {
	t.Parallel()
	a := seed1(t, "E1").String()
	b := E1BusDoS(2).String()
	if a == b {
		t.Fatal("E1 identical across seeds — seed not plumbed through")
	}
}
