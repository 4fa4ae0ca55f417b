// Conservative parallel discrete-event simulation: a KernelGroup runs
// one or more Kernels — one per model partition, e.g. one per vehicle
// zone — and lets them dispatch concurrently while keeping the overall
// event order byte-deterministic. A group of one is the plain serial
// kernel: it seeds its member with the group seed and dispatches each
// run as one unbounded window, so it behaves exactly like NewKernel(seed)
// (TestGroupSingleMemberMatchesKernel). That is what lets every vehicle
// run on a group, partitioned or not.
//
// The synchronization protocol is windowed conservative PDES (the
// bounded-lag / YAWNS family). The group owns a positive lookahead L:
// the minimum virtual-time distance any cross-member interaction must
// travel (for zonal vehicles, the backbone's encapsulation + switch-hop
// latency — no frame can cross zones faster). Each round:
//
//  1. Horizon: m = min over members of NextEventTime(). The window is
//     [m, m+L): no member can receive anything new below m+L, because a
//     message sent by an event at time t >= m arrives at t+L >= m+L.
//     A group of one has no sender to wait for, so its window is
//     unbounded.
//  2. Dispatch: every member drains its events with deadline < m+L, in
//     parallel. Members never touch each other's state directly;
//     cross-member effects go through Send, which buffers a timestamped
//     message on the *sender*.
//  3. Barrier: buffered messages flush into the receiving kernels in a
//     fixed order — receiver index, then sender index, then send order —
//     so tie-breaking at equal deadlines is identical no matter how many
//     worker goroutines ran the window.
//
// Deadlock freedom is structural: there are no pairwise channel
// dependencies to cycle on, only the global barrier, and every round
// dispatches at least the event at m (L > 0), so virtual time strictly
// advances while any events remain.
//
// Determinism: the window bound depends only on queue state, each
// member's in-window dispatch order is its own (when, seq) heap order,
// and the flush order is fixed — so the group's state evolution is a
// pure function of (seed, model), independent of SetWorkers. Workers=1
// is the serial reference the equivalence tests pin parallel runs
// against, byte for byte.
package sim

import "fmt"

// memberSeed derives member i's kernel seed from the group seed with a
// splitmix64 finalizer, so member streams are statistically independent
// (the derivation depends only on the index). A group of one has no
// siblings to decorrelate from and seeds its kernel with the group seed
// itself.
func memberSeed(seed uint64, i, members int) uint64 {
	if members == 1 {
		return seed
	}
	z := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// xMsg is one pooled inter-kernel message: a callback to inject into the
// receiving kernel at an absolute deadline. Nodes are owned by the
// sending member's free list; the coordinator recycles them at the
// barrier, which is never concurrent with the sender's window, so the
// pool needs no lock.
type xMsg struct {
	at Time
	fn func()
}

// groupMember pairs a kernel with its outgoing mailboxes.
type groupMember struct {
	k *Kernel
	// out[d] buffers messages addressed to member d, in send order.
	// Only the goroutine running this member's window appends; only the
	// coordinator (at the barrier) drains.
	out  [][]*xMsg
	free []*xMsg
}

func (m *groupMember) alloc() *xMsg {
	if n := len(m.free); n > 0 {
		x := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return x
	}
	return &xMsg{}
}

// KernelGroup synchronizes a fixed set of Kernels under a shared
// lookahead. Construct with NewKernelGroup. Barrier hooks and workers
// may only change between runs.
type KernelGroup struct {
	seed      uint64
	lookahead Duration
	members   []*groupMember
	workers   int
	barrier   []func(limit Time)
	halted    bool

	// worker plumbing, live only inside run() when workers > 1.
	nworkers int
	start    []chan Time
	done     chan bool
}

// NewKernelGroup creates a group of members kernels (at least one).
// lookahead is the minimum virtual-time distance of every cross-member
// message and must be positive — it is what lets members dispatch a
// window in parallel.
func NewKernelGroup(seed uint64, lookahead Duration, members int) *KernelGroup {
	if lookahead <= 0 {
		panic("sim: KernelGroup needs a positive lookahead")
	}
	if members < 1 {
		panic(fmt.Sprintf("sim: KernelGroup needs at least one member, got %d", members))
	}
	g := &KernelGroup{seed: seed, lookahead: lookahead, workers: 1, members: make([]*groupMember, members)}
	for i := range g.members {
		g.members[i] = &groupMember{k: NewKernel(memberSeed(seed, i, members)), out: make([][]*xMsg, members)}
	}
	return g
}

// Kernel returns member i's kernel.
func (g *KernelGroup) Kernel(i int) *Kernel { return g.members[i].k }

// Members reports how many member kernels the group runs.
func (g *KernelGroup) Members() int { return len(g.members) }

// Lookahead reports the group's cross-member lookahead.
func (g *KernelGroup) Lookahead() Duration { return g.lookahead }

// SetWorkers picks how many goroutines dispatch windows: 1 (the
// default) runs members serially on the calling goroutine — the
// reference schedule — and n > 1 shards members across n goroutines.
// Output is byte-identical for every value.
func (g *KernelGroup) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// Workers reports the configured window parallelism.
func (g *KernelGroup) Workers() int { return g.workers }

// Steps reports the total events dispatched across all members.
func (g *KernelGroup) Steps() uint64 {
	var n uint64
	for _, m := range g.members {
		n += m.k.Steps()
	}
	return n
}

// Pending reports the total queued events across all members.
func (g *KernelGroup) Pending() int {
	n := 0
	for _, m := range g.members {
		n += m.k.Pending()
	}
	return n
}

// Now reports member 0's clock (after RunUntil, every member's clock
// equals the target time).
func (g *KernelGroup) Now() Time { return g.members[0].k.Now() }

// AtBarrier registers a hook the coordinator runs single-threaded after
// every round's flush, with the round's window limit. Hooks are where
// cross-member state merges safely (e.g. the vehicle audit chain): no
// member window is in flight while they run.
func (g *KernelGroup) AtBarrier(fn func(limit Time)) {
	g.barrier = append(g.barrier, fn)
}

// Halt stops the current run at the next round boundary. Model code
// running inside a member's window must halt its own kernel
// (Kernel.Halt) instead; the group notices at the barrier and stops.
// Calling Halt from another goroutine during a run is not safe.
func (g *KernelGroup) Halt() { g.halted = true }

// Send buffers a cross-member message: fn will run on member to's
// kernel at absolute time at. It must be called either from an event
// executing on member from's kernel, or from the coordinating goroutine
// between runs; at must be at least from's current time plus the group
// lookahead — violating that would let a message land inside a window
// another member already dispatched, so it panics (it always indicates
// a model bug, exactly like Kernel.At in the past).
//
// fn runs on the receiving kernel's goroutine; to stay allocation-free,
// senders should prebind fn once and reuse it (see the pooled message
// nodes in internal/zonal's backbone).
func (g *KernelGroup) Send(from, to int, at Time, fn func()) {
	if from < 0 || from >= len(g.members) {
		panic(fmt.Sprintf("sim: inter-kernel send from unknown member %d", from))
	}
	if to < 0 || to >= len(g.members) {
		panic(fmt.Sprintf("sim: inter-kernel send to unknown member %d", to))
	}
	s := g.members[from]
	if at < s.k.now+g.lookahead {
		panic(fmt.Sprintf("sim: inter-kernel message at %v from member %d at %v violates lookahead %v",
			at, from, s.k.now, g.lookahead))
	}
	n := s.alloc()
	n.at = at
	n.fn = fn
	s.out[to] = append(s.out[to], n)
}

// flush injects every buffered message into its receiving kernel, in
// (receiver index, sender index, send order) — the fixed tie-break that
// makes rounds worker-count-independent — and recycles the nodes.
// Coordinator-only; never concurrent with member windows.
func (g *KernelGroup) flush() {
	for di, dst := range g.members {
		for _, src := range g.members {
			box := src.out[di]
			if len(box) == 0 {
				continue
			}
			for i, msg := range box {
				dst.k.At(msg.at, msg.fn)
				msg.fn = nil
				src.free = append(src.free, msg)
				box[i] = nil
			}
			src.out[di] = box[:0]
		}
	}
}

// round dispatches one window on every member and reports false if any
// member halted mid-window.
func (g *KernelGroup) round(limit Time) bool {
	if g.start == nil {
		ok := true
		for _, m := range g.members {
			if !m.k.DispatchBefore(limit) {
				ok = false
			}
		}
		return ok
	}
	for _, ch := range g.start {
		ch <- limit
	}
	ok := true
	for range g.start {
		if !<-g.done {
			ok = false
		}
	}
	return ok
}

// startWorkers spawns w window goroutines with a static member
// partition (worker wi owns members wi, wi+w, ...). Channel handoffs
// order every window after the previous flush and every flush after the
// windows it drains, which is the entire memory-model story: members
// only ever touch their own kernel and their own outgoing mailboxes.
func (g *KernelGroup) startWorkers(w int) {
	g.nworkers = w
	g.start = make([]chan Time, w)
	g.done = make(chan bool, w)
	for wi := 0; wi < w; wi++ {
		ch := make(chan Time, 1)
		g.start[wi] = ch
		go func(wi int, ch chan Time) {
			for limit := range ch {
				ok := true
				for mi := wi; mi < len(g.members); mi += w {
					if !g.members[mi].k.DispatchBefore(limit) {
						ok = false
					}
				}
				g.done <- ok
			}
		}(wi, ch)
	}
}

// stopWorkers shuts the window goroutines down at the end of a run.
func (g *KernelGroup) stopWorkers() {
	for _, ch := range g.start {
		close(ch)
	}
	g.start = nil
	g.nworkers = 0
}

// Run dispatches rounds until every member's queue drains (or Halt).
func (g *KernelGroup) Run() error { return g.run(0, true) }

// RunUntil dispatches rounds until no member has an event with deadline
// <= t, then sets every member's clock to t — the group analogue of
// Kernel.RunUntil. Returns ErrHalted if halted early.
func (g *KernelGroup) RunUntil(t Time) error { return g.run(t, false) }

func (g *KernelGroup) run(until Time, drain bool) error {
	g.halted = false
	// Deliver messages buffered between runs (setup-time Sends) so the
	// first horizon sees them.
	g.flush()
	w := g.workers
	if w > len(g.members) {
		w = len(g.members)
	}
	if w > 1 {
		g.startWorkers(w)
		defer g.stopWorkers()
	}
	for !g.halted {
		m := Never
		for _, mb := range g.members {
			if nt := mb.k.NextEventTime(); nt < m {
				m = nt
			}
		}
		if m == Never || (!drain && m > until) {
			break
		}
		limit := m + g.lookahead
		if limit < m || len(g.members) == 1 { // overflow near Never, or no sibling to wait for
			limit = Never
		}
		if !drain {
			end := until
			if end != Never {
				end++ // events at exactly `until` belong to the run
			}
			if limit > end {
				limit = end
			}
		}
		ok := g.round(limit)
		g.flush()
		for _, fn := range g.barrier {
			fn(limit)
		}
		if !ok {
			g.halted = true
		}
	}
	if g.halted {
		return ErrHalted
	}
	if !drain {
		for _, mb := range g.members {
			if until > mb.k.now {
				mb.k.now = until
			}
		}
	}
	return nil
}

// Reset rewinds every member kernel to time zero under seeds derived
// from the new group seed exactly as NewKernelGroup derives them,
// recycles any undelivered cross-member messages, and clears the halt
// flag. Barrier hooks and workers are construction wiring and survive —
// the group analogue of Kernel.Reset, and what core.VehiclePool leans on
// to recycle vehicles.
func (g *KernelGroup) Reset(seed uint64) {
	g.seed = seed
	g.halted = false
	for i, m := range g.members {
		m.k.Reset(memberSeed(seed, i, len(g.members)))
		for d, box := range m.out {
			for j, msg := range box {
				msg.fn = nil
				m.free = append(m.free, msg)
				box[j] = nil
			}
			m.out[d] = box[:0]
		}
	}
}
