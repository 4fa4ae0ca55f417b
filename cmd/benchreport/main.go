// Command benchreport regenerates the full experiment suite E1–E22 (plus
// ablations A1–A2) from DESIGN.md and prints each result table, paper
// claim included. The suite, its order and the flags below all come from
// experiments.Registry. Two flags reach inside an experiment, each only
// where the experiment's spec declares the axis: -workers N runs every
// selected experiment with a workers axis (E18–E22) on N kernel or fleet
// workers — any N prints the same bytes as the default, which is the
// point of those experiments and what CI diffs — and -sweep LIST replaces
// the sweep of the one selected experiment with a sweep axis (E17 and
// E19 zone counts, E18 and E20 fleet sizes), e.g. -only E18 -sweep
// 500,5000.
//
// With -seeds N it becomes a replication study: the suite runs once per
// seed (seed, seed+1, …) sharded across a -par-sized worker pool, and the
// printed tables carry mean ± 95% CI, standard deviation and per-seed
// range columns for every cell that varies across seeds. The merge is
// deterministic: any -par value produces byte-identical output.
//
// With -json FILE (single-seed mode) it additionally emits a
// machine-readable report: wall-clock nanoseconds and a SHA-256 hash of
// the rendered table for every experiment, plus a runtime/metrics
// snapshot (live heap bytes, cumulative allocation, GC cycles) taken
// after the run. The BENCH_PRn.json files at the repo root hold such
// reports as history; nothing reads them.
//
// Observability: -trace FILE installs a process-default trace sink
// (sim.SetDefaultTraceSink) before any experiment builds its kernel, so
// every kernel's dispatch events land in one Chrome trace_event JSON —
// single-seed mode only, where experiments run sequentially and the
// interleaving is deterministic. -metrics prints the runtime/metrics
// snapshot as a table after the run. -progress streams E20's per-drive
// completion and vehicles/sec to stderr, strictly outside the
// deterministic stdout.
//
// -cpuprofile / -memprofile write pprof profiles of the run, so future
// perf work can grab flame graphs without editing code:
//
//	go run ./cmd/benchreport -only E1 -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
//
// benchreport gates nothing: TestRegistry's goldens pin the tables, gate
// tests next to the benchmarks (TestFleetDriveBenchmarkGates,
// TestCampaignVerifyBenchmarkGates) pin allocation ceilings and speed
// ratios, and the BENCHMARK.json workloads judge timing.
//
// Usage:
//
//	benchreport [-seed N] [-seeds N] [-par N] [-only E3,E8] [-json FILE]
//	            [-workers N] [-sweep LIST] [-progress] [-trace FILE]
//	            [-metrics] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"autosec/internal/experiments"
	"autosec/internal/fleet"
	"autosec/internal/obs"
	"autosec/internal/runner"
	"autosec/internal/sim"
)

// jsonReport is the schema written by -json. Runtime is the
// runtime/metrics snapshot taken after the suite finishes
// (heap_bytes, total_alloc_bytes, gc_cycles).
type jsonReport struct {
	Seed        uint64            `json:"seed"`
	GoVersion   string            `json:"go_version"`
	Experiments []jsonExperiment  `json:"experiments"`
	TotalNS     int64             `json:"total_ns"`
	Runtime     map[string]uint64 `json:"runtime"`
}

// jsonExperiment pins one experiment's regeneration cost and output hash.
type jsonExperiment struct {
	ID   string `json:"id"`
	NS   int64  `json:"ns"`
	Hash string `json:"table_sha256"`
}

// options holds the parsed and validated command line.
type options struct {
	seed        uint64
	nseeds      int
	par         int
	workers     int
	sweep       []int
	sweepID     string // the one selected spec -sweep applies to
	progress    bool
	jsonOut     string
	traceFile   string
	showMetrics bool
	cpuProfile  string
	memProfile  string
	specs       []experiments.Spec // selected by -only, in registry order
}

// parseFlags parses args (without the program name) and rejects
// contradictory combinations before any experiment runs.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	o := &options{}
	fs.Uint64Var(&o.seed, "seed", 1, "base scenario seed (same seed, same tables)")
	fs.IntVar(&o.nseeds, "seeds", 1, "number of replicate seeds (seed, seed+1, ...); >1 prints aggregated tables")
	fs.IntVar(&o.par, "par", runtime.GOMAXPROCS(0), "replication worker pool size")
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E3,E8); empty runs all")
	fs.IntVar(&o.workers, "workers", 0, "kernel or fleet worker count for every selected experiment with a workers axis (0 = each experiment's default; any value prints identical tables)")
	sweep := fs.String("sweep", "", "comma-separated sweep list for the one selected experiment with a sweep axis (E17/E19 zone counts, E18/E20 fleet sizes); empty uses the golden default")
	fs.BoolVar(&o.progress, "progress", false, "stream fleet drive progress and throughput to stderr (wall-clock telemetry; never in the tables)")
	fs.StringVar(&o.jsonOut, "json", "", "write per-experiment ns + table hashes as JSON to this file ('-' for stdout); single-seed mode only")
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON of every kernel's dispatch activity to this file; single-seed mode only")
	fs.BoolVar(&o.showMetrics, "metrics", false, "print a runtime/metrics snapshot (heap, allocs, GC) after the run")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile taken after the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.par <= 0 {
		o.par = runtime.GOMAXPROCS(0)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0")
	}
	if o.nseeds > 1 && o.jsonOut != "" {
		return nil, fmt.Errorf("-json requires single-seed mode (drop -seeds)")
	}
	if o.nseeds > 1 && o.traceFile != "" {
		return nil, fmt.Errorf("-trace requires single-seed mode (replicates interleave nondeterministically)")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := experiments.Lookup(id); !ok {
				return nil, fmt.Errorf("-only: unknown experiment %q", id)
			}
			want[id] = true
		}
	}
	var sweepIDs []string
	for _, s := range experiments.Registry {
		if len(want) > 0 && !want[s.ID] {
			continue
		}
		o.specs = append(o.specs, s)
		if s.Axes&experiments.AxisSweep != 0 {
			sweepIDs = append(sweepIDs, s.ID)
		}
	}
	if *sweep != "" {
		if len(sweepIDs) != 1 {
			return nil, fmt.Errorf("-sweep needs exactly one selected experiment with a sweep axis, got %v; pick one with -only", sweepIDs)
		}
		o.sweepID = sweepIDs[0]
		for _, part := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-sweep: %q is not a positive integer", part)
			}
			o.sweep = append(o.sweep, n)
		}
	}
	return o, nil
}

// params returns the Params spec s runs with under o's flags.
func (o *options) params(s experiments.Spec) experiments.Params {
	var p experiments.Params
	if s.Axes&experiments.AxisWorkers != 0 {
		p.Workers = o.workers
	}
	if s.ID == o.sweepID {
		p.Sweep = o.sweep
	}
	if o.progress {
		p.Observe = func(n int, mode string) fleet.DriveObserver {
			fmt.Fprintf(os.Stderr, "%s [%s]: driving %d vehicles\n", s.ID, mode, n)
			return fleet.NewProgressWriter(os.Stderr, n)
		}
	}
	return p
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(2)
	}
	var tracer *obs.Tracer
	if o.traceFile != "" {
		// The experiments build their kernels internally, so the only
		// tracing hook is the process default every NewKernel picks up.
		tracer = obs.NewTracer(0)
		sim.SetDefaultTraceSink(tracer)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize live-heap stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			}
		}()
	}

	if o.nseeds <= 1 {
		report := jsonReport{Seed: o.seed, GoVersion: runtime.Version()}
		quiet := o.jsonOut == "-" // keep stdout parseable
		for _, s := range o.specs {
			start := time.Now()
			table := s.Run(o.seed, o.params(s))
			elapsed := time.Since(start)
			rendered := table.String()
			report.TotalNS += elapsed.Nanoseconds()
			report.Experiments = append(report.Experiments, jsonExperiment{
				ID:   s.ID,
				NS:   elapsed.Nanoseconds(),
				Hash: fmt.Sprintf("%x", sha256.Sum256([]byte(rendered))),
			})
			if !quiet {
				fmt.Println(rendered)
				fmt.Printf("  (regenerated in %v)\n\n", elapsed.Round(time.Millisecond))
			}
		}
		report.Runtime = obs.RuntimeMetrics()
		if o.jsonOut != "" {
			if err := writeJSON(o.jsonOut, &report); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				os.Exit(1)
			}
		}
		if tracer != nil {
			if err := writeTrace(o.traceFile, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				os.Exit(1)
			}
			if !quiet {
				fmt.Printf("trace: %d events (%d dropped) -> %s\n", tracer.Len(), tracer.Dropped(), o.traceFile)
			}
		}
		if o.showMetrics && !quiet {
			// with -json - the runtime block is already in the JSON and
			// stdout must stay parseable
			printRuntimeMetrics(report.Runtime)
		}
		return
	}

	// Replication mode: run the selected suite once per seed on the pool,
	// then print the deterministic merge.
	suite := func(seed uint64) []*experiments.Table {
		tables := make([]*experiments.Table, len(o.specs))
		for i, s := range o.specs {
			tables[i] = s.Run(seed, o.params(s))
		}
		return tables
	}
	seeds := runner.Seeds(o.seed, o.nseeds)
	start := time.Now()
	tables, err := runner.ReplicateAggregate(context.Background(), suite, seeds, o.par)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	for _, t := range tables {
		fmt.Println(t.String())
	}
	fmt.Printf("  (%d experiments x %d seeds on %d workers in %v)\n",
		len(o.specs), o.nseeds, o.par, elapsed)
	if o.showMetrics {
		printRuntimeMetrics(obs.RuntimeMetrics())
	}
}

// printRuntimeMetrics renders the runtime snapshot through the same
// table machinery as every other metric surface.
func printRuntimeMetrics(rt map[string]uint64) {
	keys := make([]string, 0, len(rt))
	for k := range rt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]obs.Metric, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, obs.Metric{Key: "runtime/" + k, Kind: "probe", Value: float64(rt[k])})
	}
	fmt.Println()
	fmt.Print(experiments.MetricsTable(snap))
}

// writeTrace dumps the collected dispatch events as Chrome trace JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON marshals the report with stable indentation to path or stdout.
func writeJSON(path string, report *jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
