package ids

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// The per-key trainers below are the reference the single-pass Train
// methods are checked against: each key's records are gathered by a
// full scan (refByKey), their successive differences taken in trace
// order (refIntervals), and the median read from a sim.Summary.

func refByKey(t *netif.Trace, k netif.Key) []netif.Record {
	var out []netif.Record
	for _, r := range t.Records {
		if r.Frame.Key() == k {
			out = append(out, r)
		}
	}
	return out
}

func refIntervals(t *netif.Trace, k netif.Key) []sim.Duration {
	recs := refByKey(t, k)
	if len(recs) < 2 {
		return nil
	}
	out := make([]sim.Duration, 0, len(recs)-1)
	for i := 1; i < len(recs); i++ {
		out = append(out, recs[i].At-recs[i-1].At)
	}
	return out
}

func refKeys(t *netif.Trace) map[netif.Key]bool {
	out := make(map[netif.Key]bool)
	for i := range t.Records {
		out[t.Records[i].Frame.Key()] = true
	}
	return out
}

func refTrainInterval(d *IntervalDetector, trace *netif.Trace) {
	d.period = make(map[netif.Key]sim.Duration)
	d.lastAt = make(map[netif.Key]sim.Time)
	for k := range refKeys(trace) {
		ivs := refIntervals(trace, k)
		if len(ivs) < 3 {
			continue
		}
		var s sim.Summary
		for _, iv := range ivs {
			s.Observe(float64(iv))
		}
		d.period[k] = sim.Duration(s.Quantile(0.5))
	}
}

func refTrainFrequency(d *FrequencyDetector, trace *netif.Trace) {
	d.bounds = make(map[netif.Key][2]float64)
	if trace.Len() == 0 {
		return
	}
	start, end := trace.Records[0].At, trace.Records[0].At
	for _, r := range trace.Records {
		if r.At < start {
			start = r.At
		}
		if r.At > end {
			end = r.At
		}
	}
	nWin := int((end-start)/d.Window) + 1
	perWin := make(map[netif.Key][]int)
	for k := range refKeys(trace) {
		perWin[k] = make([]int, nWin)
	}
	for i := range trace.Records {
		r := &trace.Records[i]
		perWin[r.Frame.Key()][int((r.At-start)/d.Window)]++
	}
	for k, wins := range perWin {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range wins {
			lo, hi = math.Min(lo, float64(c)), math.Max(hi, float64(c))
		}
		d.bounds[k] = [2]float64{lo*(1-d.Slack) - 1, hi*(1+d.Slack) + 1}
	}
	d.boundKeys = d.boundKeys[:0]
	for k := range d.bounds {
		d.boundKeys = append(d.boundKeys, k)
	}
	sort.Slice(d.boundKeys, func(i, j int) bool { return d.boundKeys[i] < d.boundKeys[j] })
	d.counts = make(map[netif.Key]int)
	d.suppressed = make(map[netif.Key]bool)
}

// randomTrainingTrace mixes periodic keys, keys with 0-4 records and
// aperiodic keys across all four media, then swaps some records out of
// time order and gives some a neighbour's timestamp.
func randomTrainingTrace(rng *rand.Rand) *netif.Trace {
	kinds := []netif.Kind{netif.CAN, netif.LIN, netif.FlexRay, netif.Ethernet}
	tr := &netif.Trace{}
	add := func(at sim.Time, kind netif.Kind, id uint32) {
		tr.Records = append(tr.Records, netif.Record{At: at,
			Frame: netif.Frame{Medium: kind, ID: id, Payload: []byte{byte(id)}}})
	}
	span := sim.Duration(200+rng.Intn(1800)) * sim.Millisecond
	for n := 1 + rng.Intn(8); n > 0; n-- {
		kind, id := kinds[rng.Intn(len(kinds))], uint32(rng.Intn(16))
		switch rng.Intn(3) {
		case 0: // periodic with jitter
			period := sim.Duration(1+rng.Intn(50)) * sim.Millisecond
			for at := sim.Duration(rng.Int63n(int64(period))); at < span; at += period {
				add(at+sim.Duration(rng.Int63n(int64(period)/10+1)), kind, id)
			}
		case 1: // 0-4 records
			for i := rng.Intn(5); i > 0; i-- {
				add(sim.Duration(rng.Int63n(int64(span))), kind, id)
			}
		default: // aperiodic
			for i := 5 + rng.Intn(40); i > 0; i-- {
				add(sim.Duration(rng.Int63n(int64(span))), kind, id)
			}
		}
	}
	sort.SliceStable(tr.Records, func(i, j int) bool { return tr.Records[i].At < tr.Records[j].At })
	for i := 1; i < len(tr.Records); i++ {
		switch rng.Intn(8) {
		case 0:
			tr.Records[i], tr.Records[i-1] = tr.Records[i-1], tr.Records[i]
		case 1:
			tr.Records[i].At = tr.Records[i-1].At
		}
	}
	return tr
}

// attackTrace is a time-sorted live stream over the same key space:
// clean-looking traffic, bursts and silences.
func attackTrace(rng *rand.Rand) []netif.Record {
	kinds := []netif.Kind{netif.CAN, netif.LIN, netif.FlexRay, netif.Ethernet}
	var out []netif.Record
	for at := sim.Time(0); at < 3*sim.Second; at += sim.Duration(rng.Intn(8)) * sim.Millisecond {
		burst := 1
		if rng.Intn(20) == 0 {
			burst = 10 + rng.Intn(30)
		}
		kind, id := kinds[rng.Intn(len(kinds))], uint32(rng.Intn(16))
		for ; burst > 0; burst-- {
			out = append(out, netif.Record{At: at, Frame: netif.Frame{Medium: kind, ID: id, Payload: []byte{byte(id)}}})
			at += sim.Duration(rng.Intn(300)) * sim.Microsecond
		}
	}
	return out
}

// TestTrainMatchesPerKeyReference checks that the single-pass trainers
// learn exactly what the per-key reference learns, on seeded random
// traces with unsorted records, duplicate timestamps, mixed media, keys
// with 0-4 records and aperiodic keys, and that both then raise the
// same alert stream on a shared live trace.
func TestTrainMatchesPerKeyReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		train, live := randomTrainingTrace(rng), attackTrace(rng)
		name := fmt.Sprintf("seed %d (%d training records)", seed, train.Len())

		gotI, wantI := NewIntervalDetector(), NewIntervalDetector()
		gotI.Train(train)
		refTrainInterval(wantI, train)
		if !reflect.DeepEqual(gotI.period, wantI.period) {
			t.Fatalf("%s: interval period\n got  %v\n want %v", name, gotI.period, wantI.period)
		}
		gotF, wantF := NewFrequencyDetector(), NewFrequencyDetector()
		gotF.Train(train)
		refTrainFrequency(wantF, train)
		if !reflect.DeepEqual(gotF.bounds, wantF.bounds) || !reflect.DeepEqual(gotF.boundKeys, wantF.boundKeys) {
			t.Fatalf("%s: frequency bounds\n got  %v %v\n want %v %v", name,
				gotF.bounds, gotF.boundKeys, wantF.bounds, wantF.boundKeys)
		}
		for _, pair := range [][2]Detector{{gotI, wantI}, {gotF, wantF}} {
			var got, want []Alert
			for _, r := range live {
				got = append(got, pair[0].Observe(r)...)
				want = append(want, pair[1].Observe(r)...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s alert streams differ: %d vs %d alerts", name, pair[0].Name(), len(got), len(want))
			}
		}
	}
}

// TestNearestRankMedianMatchesSort checks the selection against the
// sorted sample, on small samples full of duplicates.
func TestNearestRankMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		s := make([]sim.Duration, 1+rng.Intn(40))
		for j := range s {
			s[j] = sim.Duration(rng.Intn(2*len(s)) - len(s)/2)
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		if got, want := nearestRankMedian(s), sorted[(len(s)+1)/2-1]; got != want {
			t.Fatalf("nearestRankMedian(%v) = %d, want %d", sorted, got, want)
		}
	}
}

// TestTrainIntervalsHandCase pins the reference helpers and the trainer
// on a small trace: inter-arrival times are taken per key in trace order,
// and a key needs three of them to be modelled.
func TestTrainIntervalsHandCase(t *testing.T) {
	tr := traceOf(
		canRec(10, 0x100, nil),
		linRec(20, 0x21, "slave", 1),
		canRec(30, 0x100, nil),
		canRec(60, 0x100, nil),
		canRec(100, 0x100, nil),
		canRec(110, 0x200, nil),
		canRec(120, 0x200, nil),
		canRec(130, 0x200, nil),
	)
	can100, can200 := netif.MakeKey(netif.CAN, 0x100), netif.MakeKey(netif.CAN, 0x200)
	if iv := refIntervals(tr, can100); !reflect.DeepEqual(iv, []sim.Duration{20, 30, 40}) {
		t.Fatalf("intervals = %v", iv)
	}
	if n := len(refByKey(tr, netif.MakeKey(netif.LIN, 0x21))); n != 1 {
		t.Fatalf("refByKey found %d LIN records", n)
	}
	d := NewIntervalDetector()
	d.Train(tr)
	want := map[netif.Key]sim.Duration{can100: 30}
	if !reflect.DeepEqual(d.period, want) {
		t.Fatalf("period = %v, want %v (0x200 has only two intervals)", d.period, want)
	}
	if _, ok := d.period[can200]; ok {
		t.Fatal("key with two intervals was modelled")
	}
}

// fleetTrainingTrace is the clean trace the fleet benchmark's vehicles
// train on: four CAN messages over one second.
func fleetTrainingTrace() *netif.Trace {
	specs := []workload.MessageSpec{
		{ID: 0x0A0, Period: 10 * sim.Millisecond, Size: 8, Sender: "engine-ecu", Counter: true},
		{ID: 0x0B0, Period: 20 * sim.Millisecond, Size: 6, Sender: "engine-ecu"},
		{ID: 0x301, Period: 10 * sim.Millisecond, Size: 4, Sender: "nav-ecu"},
		{ID: 0x311, Period: 20 * sim.Millisecond, Size: 4, Sender: "body-ecu"},
	}
	return workload.SyntheticTrace(specs, sim.Second, 1, 0.01).Netif()
}

// trainFresh builds the baseline suite afresh and trains it, as a pooled
// vehicle does on every reset.
func trainFresh(tr *netif.Trace) *Registry {
	var r Registry
	for _, d := range BaselineSuite().Build() {
		r.Register(d)
	}
	r.Train(tr)
	return &r
}

// maxTrainBytesPerRecord caps what training the baseline suite may
// allocate per training record. The per-key trainers it replaced
// allocated ~280 B per record, copying every record once per key.
const maxTrainBytesPerRecord = 40

func TestRegistryTrainAllocBytes(t *testing.T) {
	tr := fleetTrainingTrace()
	trainFresh(tr)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		trainFresh(tr)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(tr.Len())
	t.Logf("%.1f B per training record (%d records)", perRecord, tr.Len())
	if perRecord > maxTrainBytesPerRecord {
		t.Fatalf("training allocates %.1f B per record, cap %d", perRecord, maxTrainBytesPerRecord)
	}
}

func BenchmarkRegistryTrain(b *testing.B) {
	tr := fleetTrainingTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainFresh(tr)
	}
}
