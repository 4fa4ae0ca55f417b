package zonal

import "autosec/internal/gateway"

// Pooled-vehicle lifecycle support. MarkBaseline seals the fabric's
// post-construction topology (zones, leaf domains, logical rules,
// observers); ResetToBaseline rewinds to that snapshot: scenario zones,
// domains, rules and observers are dropped, every zone gateway resets to
// its own baseline (lifting quarantines and zeroing counters), and the
// compiled per-zone rule shards are rebuilt from the baseline logical
// rule set so a reset fabric routes exactly like a freshly built one.

// fabBaseline is the sealed post-construction state of a Fabric.
type fabBaseline struct {
	sealed        bool
	zones         int
	domains       int // len(domainOrder)
	rules         int
	observers     int
	defaultAction gateway.Action
}

// MarkBaseline records the fabric's current topology as the reset target.
// It also seals every zone gateway's baseline.
func (f *Fabric) MarkBaseline() {
	f.base = fabBaseline{
		sealed:        true,
		zones:         len(f.zones),
		domains:       len(f.domainOrder),
		rules:         len(f.rules),
		observers:     len(f.observers),
		defaultAction: f.defaultAction,
	}
	for _, z := range f.zones {
		z.baseLocals = len(z.locals)
		z.GW.MarkBaseline()
	}
}

// ResetToBaseline rewinds the fabric to its MarkBaseline snapshot,
// backbone counters included. The kernels must be reset separately; a
// backbone frame still in flight is dropped with its kernel's queue.
func (f *Fabric) ResetToBaseline() {
	if !f.base.sealed {
		panic("zonal: ResetToBaseline before MarkBaseline")
	}
	for i := f.base.domains; i < len(f.domainOrder); i++ {
		delete(f.domainZone, f.domainOrder[i])
		f.domainOrder[i] = ""
	}
	f.domainOrder = f.domainOrder[:f.base.domains]
	for i := f.base.zones; i < len(f.zones); i++ {
		delete(f.byName, f.zones[i].Name)
		f.zones[i] = nil
		f.bb[i] = nil
	}
	f.zones = f.zones[:f.base.zones]
	f.bb = f.bb[:f.base.zones]
	for _, z := range f.zones {
		for i := z.baseLocals; i < len(z.locals); i++ {
			z.locals[i] = ""
		}
		z.locals = z.locals[:z.baseLocals]
		z.GW.ResetToBaseline()
	}
	for i := f.base.rules; i < len(f.rules); i++ {
		f.rules[i] = nil
	}
	f.rules = f.rules[:f.base.rules]
	for _, r := range f.rules {
		r.Matched.Value = 0
		r.RateDrops.Value = 0
	}
	f.defaultAction = f.base.defaultAction
	for _, z := range f.zones {
		z.GW.DefaultAction = f.defaultAction
	}
	for i := f.base.observers; i < len(f.observers); i++ {
		f.observers[i] = nil
	}
	f.observers = f.observers[:f.base.observers]
	for _, z := range f.zones {
		z.bbDeliveries.Value = 0
	}
	for _, bn := range f.bb {
		bn.port.frames.Value = 0
	}
	f.recompile()
}
