// Command perfbench is the repository benchmark. It runs one named
// workload through the public APIs of autosec's internal packages,
// checks the workload's security oracles, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload fleet-zonal --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced rounds;
// with --trace 1 it alternates untraced and traced rounds and reports the
// per-layer metrics: exact simulated counts, replay-probe timings, the
// per-module CPU ledger and the tracing overhead. README.md explains the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// result is what one round over a workload's fixed input produced.
type result struct {
	// units counts the workload's throughput unit (see workload.unit).
	units int64
	// ops counts operations attempted; failed those that returned an
	// error or failed the workload's oracle.
	ops, failed int64
	// counts holds exact simulated counts keyed by per-layer metric
	// name (plus "digest" fingerprints). Two rounds over the same input
	// must produce identical counts, traced or not.
	counts map[string]int64
}

// instance is a set-up workload ready to run rounds.
type instance interface {
	run(tr *tracer) (*result, error)
}

// referenceRunner is implemented by instances whose oracle compares
// each round against a reference execution (zonal-partitioned runs the
// same input again at one worker).
type referenceRunner interface {
	reference() (*result, error)
}

// benchWorkload describes one benchmark workload.
type benchWorkload struct {
	name string
	// unit names what units_per_s counts.
	unit string
	// singleUse marks instances that a round consumes (campaign state,
	// pseudonym rotation), so every round sets up afresh.
	singleUse bool
	setup     func(seed uint64, workers int, tr *tracer) (instance, error)
}

var workloads = []benchWorkload{fleetZonal, otaCampaign, v2xIntersection, zonalPartitioned}

// setupReps is how many times a reusable workload is set up per run, so
// setup_s is a median rather than one sample.
const setupReps = 9

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement duration in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root (for the run record)")
	out := flag.String("out", ".bench_build", "directory for spans and profiles")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	workers := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < workers {
		workers = g
	}
	rec := newRunRecord(*root, *seed, *name, *trace == 1)
	fmt.Println(rec.line())

	var (
		rep report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(w, *seed, workers, *seconds, *out)
	} else {
		rep, err = runUntraced(w, *seed, workers, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome before printing.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	// notes are human-readable lines printed before the metrics.
	notes []string
}

// roundLoop holds the bookkeeping shared by traced and untraced runs.
type roundLoop struct {
	w       *benchWorkload
	seed    uint64
	workers int
	inst    instance
	setups  []float64
	ref     *result
	rep     report
}

func newRoundLoop(w *benchWorkload, seed uint64, workers int) (*roundLoop, error) {
	l := &roundLoop{w: w, seed: seed, workers: workers, rep: report{metrics: map[string]metric{}}}
	if !w.singleUse {
		for i := 0; i < setupReps; i++ {
			if err := l.setup(nil); err != nil {
				return nil, err
			}
		}
	}
	// One untimed warm-up round (heap growth, first-touch page faults);
	// its oracles still count.
	if _, _, _, err := l.round(nil); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *roundLoop) setup(tr *tracer) error {
	// Start every set-up from a collected heap, so a GC cycle left over
	// from the previous round does not land in a few-millisecond timing.
	runtime.GC()
	t0 := time.Now()
	inst, err := l.w.setup(l.seed, l.workers, tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	l.setups = append(l.setups, time.Since(t0).Seconds())
	l.inst = inst
	return nil
}

// round runs one round and returns it with its host wall time and the
// bytes it allocated. Set-up of single-use workloads happens first and
// is excluded from both.
func (l *roundLoop) round(tr *tracer) (*result, float64, uint64, error) {
	if l.w.singleUse {
		if err := l.setup(tr); err != nil {
			return nil, 0, 0, err
		}
	}
	a0 := readCounter("/gc/heap/allocs:bytes")
	t0 := time.Now()
	r, err := l.inst.run(tr)
	wall := time.Since(t0).Seconds()
	a1 := readCounter("/gc/heap/allocs:bytes")
	if err != nil {
		return nil, 0, 0, err
	}
	l.rep.attempted += r.ops
	l.rep.failed += r.failed
	// Every round runs the same input: any difference in simulated
	// counts (between rounds, or between traced and untraced rounds) is
	// nondeterminism and fails the round.
	if l.ref == nil {
		l.ref = r
	} else if d := diffCounts(l.ref.counts, r.counts); d != "" {
		l.rep.failed += r.ops - r.failed
		l.rep.notes = append(l.rep.notes, "FAIL counts differ between rounds: "+d)
	}
	return r, wall, a1 - a0, nil
}

// checkReference runs the instance's reference execution, if it has one,
// and fails every round when the counts disagree.
func (l *roundLoop) checkReference(rounds int) error {
	rr, ok := l.inst.(referenceRunner)
	if !ok || l.ref == nil {
		return nil
	}
	ref, err := rr.reference()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	l.rep.attempted += ref.ops
	if d := diffCounts(ref.counts, l.ref.counts); d != "" {
		l.rep.failed += int64(rounds)*l.ref.ops + ref.ops
		l.rep.notes = append(l.rep.notes, "FAIL counts differ from the one-worker reference: "+d)
	}
	return nil
}

func runUntraced(w *benchWorkload, seed uint64, workers int, seconds float64) (report, error) {
	start := time.Now()
	l, err := newRoundLoop(w, seed, workers)
	if err != nil {
		return report{}, err
	}
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var walls, rates, heaps []float64
	var units int64
	var alloc uint64
	heap := startHeapSampler()
	defer heap.stop()
	for len(walls) == 0 || time.Now().Before(deadline) {
		heap.take()
		r, wall, a, err := l.round(nil)
		if err != nil {
			return report{}, err
		}
		heaps = append(heaps, heap.take())
		walls = append(walls, wall)
		rates = append(rates, float64(r.units)/wall)
		units += r.units
		alloc += a
	}
	if err := l.checkReference(len(walls)); err != nil {
		return report{}, err
	}
	if units == 0 {
		return report{}, fmt.Errorf("workload produced no units")
	}
	m := l.rep.metrics
	m["setup_s"] = metric{median(l.setups), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["units_per_s"] = metric{median(rates), "1/s"}
	m["alloc_kb_per_unit"] = metric{float64(alloc) / float64(units) / 1024, "KiB"}
	m["peak_heap_mb"] = metric{median(heaps) / (1 << 20), "MiB"}
	l.rep.notes = append(l.rep.notes,
		fmt.Sprintf("rounds=%d setups=%d unit=%s units/round=%d workers=%d", len(walls), len(l.setups), w.unit, l.ref.units, workers),
		fmt.Sprintf("%s_per_s %.6g (median of %d rounds; same figure as units_per_s)", w.unit, median(rates), len(rates)),
		fmt.Sprintf("max_rss_mb %.6g MiB (process peak resident set)", maxRSSMiB()))
	if vt, ok := l.inst.(interface{ unitTimes() []float64 }); ok {
		if ts := vt.unitTimes(); len(ts) > 0 {
			l.rep.notes = append(l.rep.notes, fmt.Sprintf("%s_us_p50 %.6g us, %s_us_p99 %.6g us (n=%d, last round)",
				w.unit, quantile(ts, 0.50), w.unit, quantile(ts, 0.99), len(ts)))
		}
	}
	return l.rep, nil
}

func runTraced(w *benchWorkload, seed uint64, workers int, seconds float64, outDir string) (report, error) {
	start := time.Now()
	l, err := newRoundLoop(w, seed, workers)
	if err != nil {
		return report{}, err
	}
	// Half the budget alternates untraced and traced rounds; the replay
	// probes use the rest.
	deadline := start.Add(time.Duration(seconds * float64(time.Second) / 2))
	var plain, traced []float64
	var lastTrace *tracer
	led := newLedger()
	var events int64
	for len(traced) == 0 || time.Now().Before(deadline) {
		r, wall, _, err := l.round(nil)
		if err != nil {
			return report{}, err
		}
		plain = append(plain, wall)
		events = r.counts["sim.events"]

		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return report{}, fmt.Errorf("cpu profile: %w", err)
		}
		_, wall, _, err = l.round(tr)
		pprof.StopCPUProfile()
		if err != nil {
			return report{}, err
		}
		traced = append(traced, wall)
		if err := led.add(prof.Bytes()); err != nil {
			return report{}, fmt.Errorf("cpu ledger: %w", err)
		}
		lastTrace = tr
	}
	if err := l.checkReference(len(plain) + len(traced)); err != nil {
		return report{}, err
	}
	m := l.rep.metrics
	for _, name := range countMetrics {
		m[name.name] = metric{float64(l.ref.counts[name.name]) / name.scale, name.unit}
	}
	m["sim.events_per_unit"] = metric{float64(events) / float64(max(l.ref.units, 1)), "count"}
	m["sim.ns_per_event"] = metric{median(plain) * 1e9 / float64(max(events, 1)), "ns"}
	m["trace.overhead_ratio"] = metric{median(traced) / median(plain), "ratio"}
	m["trace.spans"] = metric{float64(len(lastTrace.spans)), "count"}
	for k, v := range led.shares() {
		m[k] = metric{v, "%"}
	}
	m["trace.cpu_samples"] = metric{float64(led.samples), "count"}

	probes, err := runProbes(seed)
	if err != nil {
		return report{}, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := lastTrace.write(path); err != nil {
		return report{}, err
	}
	l.rep.notes = append(l.rep.notes,
		fmt.Sprintf("rounds untraced=%d traced=%d; spans of the last traced round written to %s", len(plain), len(traced), path))
	l.rep.notes = append(l.rep.notes, lastTrace.selfTimeSummary()...)
	l.rep.notes = append(l.rep.notes, led.summary()...)
	return l.rep, nil
}

// countMetric maps an exact simulated count onto a per-layer metric.
type countMetric struct {
	name  string
	unit  string
	scale float64
}

// countMetrics are reported from the counts every round records (0 when
// the workload never reaches the layer). Ratios are stored scaled by
// ratioScale so counts stay integral.
var countMetrics = []countMetric{
	{"zonal.backbone_frames", "count", 1},
	{"zonal.backbone_deliveries", "count", 1},
	{"ids.observed", "count", 1},
	{"ids.alerts", "count", 1},
	{"audit.appends", "count", 1},
	{"ota.sig_lookups", "count", 1},
	{"ota.sig_verifies", "count", 1},
	{"ota.attest_builds", "count", 1},
	{"ota.memo_hit_ratio", "ratio", ratioScale},
	{"ieee1609.verifies", "count", 1},
	{"ieee1609.rejects", "count", 1},
	{"v2x.offered", "count", 1},
	{"v2x.verified", "count", 1},
	{"v2x.dropped", "count", 1},
	{"v2x.useful_ratio", "ratio", ratioScale},
}

const ratioScale = 1e6

func ratio(num, den int64) int64 {
	if den == 0 {
		return 0
	}
	return int64(float64(num) / float64(den) * ratioScale)
}

func diffCounts(a, b map[string]int64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// readCounter reads one cumulative runtime/metrics counter.
func readCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapSampler tracks the peak live heap (bytes marked live by the last
// GC cycle) while rounds run. Unlike the process's peak resident set,
// which swings with GC pacing on a heap of a few MiB, the live heap is
// what the code under test holds.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak in bytes since the previous take and restarts it.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) }

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
