package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// groupRng is a tiny splitmix64 for driving randomized group topologies
// (test-local, independent of the kernel streams under test).
type groupRng uint64

func (r *groupRng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *groupRng) intn(n int) int { return int(r.next() % uint64(n)) }

// TestGroupSingleMemberMatchesKernel pins the degenerate case every
// unpartitioned vehicle runs on: a group of one seeded s behaves exactly
// like NewKernel(s) — same event log, clock, step count and stream draws
// — under RunUntil, Run, an in-event Halt, and after Reset(s'), since no
// message ever crosses a boundary and each run is one unbounded window.
func TestGroupSingleMemberMatchesKernel(t *testing.T) {
	// script schedules a cascade that draws from a named stream at every
	// step and halts itself at haltAt (0 = never), then drives it with
	// runUntil (or run when until is Never) and fingerprints the result.
	script := func(k *Kernel, runUntil func(Time) error, run func() error, until, haltAt Time) string {
		var log []string
		var chain func(depth int) func()
		chain = func(depth int) func() {
			return func() {
				log = append(log, fmt.Sprintf("%d@%d r%d", depth, k.Now(), k.Stream("chain").Uint64()%1000))
				if k.Now() == haltAt {
					k.Halt()
				}
				if depth < 5 {
					k.After(Duration(10*(depth+1)), chain(depth+1))
				}
			}
		}
		k.At(3, chain(0))
		k.At(3, chain(2))
		k.At(7, chain(1))
		var err error
		if until == Never {
			err = run()
		} else {
			err = runUntil(until)
		}
		log = append(log, fmt.Sprintf("end err=%v now=%d steps=%d pending=%d draw=%d",
			err, k.Now(), k.Steps(), k.Pending(), k.Stream("after").Uint64()))
		return strings.Join(log, "\n")
	}
	cases := []struct {
		name          string
		until, haltAt Time
	}{
		{"RunUntil", 400, 0},
		{"RunUntilMidCascade", 40, 0},
		{"Run", Never, 0},
		{"Halt", 400, 33},
		{"RunHalt", Never, 33},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewKernelGroup(42, 50, 1)
			ref := NewKernel(42)
			for _, seed := range []uint64{42, 7} {
				if seed != 42 {
					g.Reset(seed)
					ref.Reset(seed)
				}
				got := script(g.Kernel(0), g.RunUntil, g.Run, c.until, c.haltAt)
				want := script(ref, ref.RunUntil, ref.Run, c.until, c.haltAt)
				if got != want {
					t.Fatalf("seed %d: single-member group diverged from NewKernel:\n--- group\n%s\n--- kernel\n%s", seed, got, want)
				}
				if g.Now() != ref.Now() || g.Steps() != ref.Steps() || g.Pending() != ref.Pending() {
					t.Fatalf("seed %d: group now/steps/pending %d/%d/%d, kernel %d/%d/%d",
						seed, g.Now(), g.Steps(), g.Pending(), ref.Now(), ref.Steps(), ref.Pending())
				}
			}
		})
	}
}

// buildGroupScenario wires a randomized multi-member workload: local
// event cascades plus cross-member message chains, every decision drawn
// from member-local kernel streams so the run is a pure function of the
// group seed. Returns the per-member logs (member-local, so no data
// races at any worker count) — callers concatenate them in member order
// for a deterministic fingerprint.
func buildGroupScenario(g *KernelGroup, members int, r *groupRng) []*[]string {
	logs := make([]*[]string, members)
	for i := 0; i < members; i++ {
		logs[i] = &[]string{}
	}
	L := g.Lookahead()
	var hop func(member, depth int) func()
	hop = func(member, depth int) func() {
		k := g.Kernel(member)
		return func() {
			at := k.Now()
			draw := k.Stream("hop").Uint64() % 7
			*logs[member] = append(*logs[member], fmt.Sprintf("m%d d%d @%d r%d", member, depth, at, draw))
			if depth <= 0 {
				return
			}
			if draw < 3 {
				k.After(Duration(1+draw*13), hop(member, depth-1))
			}
			// Cross-member hop: lands lookahead + jitter later.
			to := (member + 1 + int(draw)) % len(logs)
			sent := at
			g.Send(member, to, at+L+Duration(draw*31), func() {
				rk := g.Kernel(to)
				if rk.Now() < sent+L {
					*logs[to] = append(*logs[to], fmt.Sprintf("LOOKAHEAD VIOLATION at %d < %d", rk.Now(), sent+L))
					return
				}
				hop(to, depth-1)()
			})
		}
	}
	for i := 0; i < members; i++ {
		k := g.Kernel(i)
		for e := 0; e < 2+r.intn(4); e++ {
			k.At(Time(r.intn(200)), hop(i, 2+r.intn(4)))
		}
	}
	return logs
}

func groupFingerprint(g *KernelGroup, logs []*[]string) string {
	var b strings.Builder
	for i, lg := range logs {
		fmt.Fprintf(&b, "== member %d now=%d steps=%d pending=%d\n",
			i, g.Kernel(i).Now(), g.Kernel(i).Steps(), g.Kernel(i).Pending())
		for _, line := range *lg {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestGroupSerialParallelEquivalence is the core determinism property:
// across randomized topologies and message chains, a KernelGroup
// produces byte-identical execution (per-member event order, clocks,
// step counts, stream draws) at workers=1 and workers=4. Runs under
// -race in CI, which also proves the window/flush handoffs are properly
// synchronized.
func TestGroupSerialParallelEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := groupRng(uint64(trial) * 977)
		members := 2 + r.intn(7)
		lookahead := Duration(20 + r.intn(100))
		horizon := Time(2000 + r.intn(3000))
		seed := r.next()

		run := func(workers int) string {
			g := NewKernelGroup(seed, lookahead, members)
			rr := r // copy: both runs consume identical topology draws
			logs := buildGroupScenario(g, members, &rr)
			g.SetWorkers(workers)
			if err := g.RunUntil(horizon); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			fp := groupFingerprint(g, logs)
			if strings.Contains(fp, "VIOLATION") {
				t.Fatalf("trial %d workers %d: safe-horizon violated:\n%s", trial, workers, fp)
			}
			return fp
		}
		serial := run(1)
		parallel := run(4)
		if serial != parallel {
			t.Fatalf("trial %d (members=%d L=%d): workers=1 and workers=4 diverged:\n--- serial\n%s\n--- parallel\n%s",
				trial, members, lookahead, serial, parallel)
		}
	}
}

// TestGroupRunUntilAdvancesClocks pins the RunUntil contract: events at
// exactly t dispatch, later events stay queued, and every member clock
// lands on t — so a subsequent RunUntil(t') starts all members aligned.
func TestGroupRunUntilAdvancesClocks(t *testing.T) {
	g := NewKernelGroup(1, 10, 3)
	var fired []string
	for i := 0; i < 3; i++ {
		i := i
		g.Kernel(i).At(Time(100+i), func() { fired = append(fired, fmt.Sprintf("m%d", i)) })
		g.Kernel(i).At(Time(500), func() { fired = append(fired, fmt.Sprintf("late%d", i)) })
	}
	if err := g.RunUntil(102); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fired, ","); got != "m0,m1,m2" {
		t.Fatalf("fired %q, want m0,m1,m2", got)
	}
	for i := 0; i < 3; i++ {
		if now := g.Kernel(i).Now(); now != 102 {
			t.Fatalf("member %d clock %d, want 102", i, now)
		}
	}
	if g.Pending() != 3 {
		t.Fatalf("pending %d, want the 3 late events", g.Pending())
	}
	if err := g.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 6 {
		t.Fatalf("after second run fired %v", fired)
	}
}

// TestGroupSetupSendDeliveredOnNextRun pins that messages buffered
// between runs (coordinator-side Sends) flush before the first horizon
// computation, even when the receiver's queue is otherwise empty.
func TestGroupSetupSendDeliveredOnNextRun(t *testing.T) {
	g := NewKernelGroup(1, 10, 2)
	delivered := false
	g.Send(0, 1, 10, func() { delivered = true })
	if err := g.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("setup-time message never delivered")
	}
	if now := g.Kernel(1).Now(); now != 20 {
		t.Fatalf("receiver clock %d, want 20", now)
	}
}

// TestGroupSendLookaheadViolationPanics: a message closer than the
// lookahead could land inside a window another member already
// dispatched, so Send must refuse it loudly.
func TestGroupSendLookaheadViolationPanics(t *testing.T) {
	g := NewKernelGroup(1, 100, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below the lookahead horizon did not panic")
		}
	}()
	g.Send(0, 1, 99, func() {})
}

// TestGroupSendUnknownMemberPanics: Send names both endpoints by member
// index, and an out-of-range sender or receiver is a model bug reported
// with a descriptive sim: panic, not a bare runtime index error.
func TestGroupSendUnknownMemberPanics(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to int
		want     string
	}{
		{"from", 2, 0, "sim: inter-kernel send from unknown member 2"},
		{"negative-from", -1, 0, "sim: inter-kernel send from unknown member -1"},
		{"to", 0, 5, "sim: inter-kernel send to unknown member 5"},
		{"negative-to", 1, -1, "sim: inter-kernel send to unknown member -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewKernelGroup(1, 100, 2)
			defer func() {
				if got, _ := recover().(string); got != c.want {
					t.Fatalf("panic = %q, want %q", got, c.want)
				}
			}()
			g.Send(c.from, c.to, 1000, func() {})
		})
	}
}

// TestGroupHalt: a member halting mid-window stops the group at the
// round boundary with ErrHalted, leaving undispatched events queued.
func TestGroupHalt(t *testing.T) {
	g := NewKernelGroup(1, 10, 2)
	k0 := g.Kernel(0)
	g.Kernel(1).At(5000, func() { t.Fatal("event beyond the halt round fired") })
	k0.At(10, func() { k0.Halt() })
	if err := g.RunUntil(9000); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending %d, want the stranded event", g.Pending())
	}
}

// TestGroupResetEquivalence: Reset(seed) must be indistinguishable from
// a fresh group built under that seed — including undelivered
// cross-member messages being dropped and recycled.
func TestGroupResetEquivalence(t *testing.T) {
	run := func(g *KernelGroup, seed uint64) string {
		r := groupRng(seed)
		logs := buildGroupScenario(g, g.Members(), &r)
		_ = g.RunUntil(1500)
		return groupFingerprint(g, logs)
	}

	reused := NewKernelGroup(7, 40, 4)
	// Dirty the group: run one scenario, leave messages buffered.
	_ = run(reused, 7)
	reused.Send(0, 1, reused.Kernel(0).Now()+40, func() { panic("stale message survived Reset") })
	reused.Reset(99)
	got := run(reused, 99)

	fresh := NewKernelGroup(99, 40, 4)
	want := run(fresh, 99)

	if got != want {
		t.Fatalf("reset group diverged from fresh group:\n--- reset\n%s\n--- fresh\n%s", got, want)
	}
}

// TestGroupBarrierHookOrdering: hooks run single-threaded after every
// flush with a non-decreasing window limit, and observe all events the
// round dispatched (the property the vehicle audit-chain merge needs).
func TestGroupBarrierHookOrdering(t *testing.T) {
	g := NewKernelGroup(3, 25, 2)
	var dispatched [2]int
	for i := 0; i < 2; i++ {
		i := i
		k := g.Kernel(i)
		k.Every(0, 10, func() { dispatched[i]++ })
	}
	var limits []Time
	seen := 0
	g.AtBarrier(func(limit Time) {
		limits = append(limits, limit)
		total := dispatched[0] + dispatched[1]
		if total < seen {
			t.Fatalf("barrier saw fewer events (%d) than the previous barrier (%d)", total, seen)
		}
		seen = total
	})
	g.SetWorkers(2)
	if err := g.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if len(limits) == 0 {
		t.Fatal("barrier hook never ran")
	}
	for i := 1; i < len(limits); i++ {
		if limits[i] < limits[i-1] {
			t.Fatalf("window limits regressed: %v", limits)
		}
	}
	if seen != dispatched[0]+dispatched[1] || seen == 0 {
		t.Fatalf("final barrier missed events: saw %d, dispatched %v", seen, dispatched)
	}
}

// TestGroupMailboxSteadyStateAllocs pins the inter-kernel mailbox path
// — Send, flush, inject, recycle — at zero steady-state allocations per
// round-trip, with prebound message callbacks (the discipline the zonal
// backbone follows). CI gates on this test.
func TestGroupMailboxSteadyStateAllocs(t *testing.T) {
	g := NewKernelGroup(1, 100, 2)
	k0, k1 := g.Kernel(0), g.Kernel(1)
	var ping, pong func()
	ping = func() { g.Send(1, 0, k1.Now()+100, pong) } // runs on member 1
	pong = func() { g.Send(0, 1, k0.Now()+100, ping) } // runs on member 0
	k0.At(0, func() { g.Send(0, 1, 100, ping) })

	next := Time(0)
	adv := func() {
		next += 1000
		_ = g.RunUntil(next)
	}
	for i := 0; i < 16; i++ {
		adv()
	}
	before := g.Steps()
	if n := testing.AllocsPerRun(500, adv); n != 0 {
		t.Fatalf("inter-kernel mailbox path allocates %.1f/advance, want 0", n)
	}
	if g.Steps() <= before {
		t.Fatal("messages stopped flowing during the measurement")
	}
}

// BenchmarkGroupMailbox measures the cross-kernel message round-trip
// (two Sends + two flush injections per iteration window). CI runs it
// with the 0 allocs/op gate.
func BenchmarkGroupMailbox(b *testing.B) {
	g := NewKernelGroup(1, 100, 2)
	k0, k1 := g.Kernel(0), g.Kernel(1)
	var ping, pong func()
	ping = func() { g.Send(1, 0, k1.Now()+100, pong) }
	pong = func() { g.Send(0, 1, k0.Now()+100, ping) }
	k0.At(0, func() { g.Send(0, 1, 100, ping) })
	next := Time(0)
	for i := 0; i < 16; i++ {
		next += 1000
		_ = g.RunUntil(next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += 200 // one ping-pong round per iteration
		_ = g.RunUntil(next)
	}
}
