package experiments

import "autosec/internal/fleet"

// Params are the knobs a Spec may honour beyond the seed. The zero value
// reproduces the golden table; a spec ignores every field its Axes do
// not declare.
type Params struct {
	// Workers is the kernel or fleet worker count, whichever the
	// experiment has (0 = the spec's default). Every value prints the
	// same bytes.
	Workers int
	// Sweep replaces the experiment's sweep list: zone counts for E17 and
	// E19, fleet sizes for E18 and E20 (nil = the golden default).
	Sweep []int
	// Observe, when non-nil, is called once per E20 fleet drive; the
	// returned observer receives that drive's wall-clock progress, which
	// never reaches the table.
	Observe func(fleetSize int, mode string) fleet.DriveObserver
}

// Axes declares which Params fields a Spec honours.
type Axes uint8

const (
	// AxisWorkers: the table is byte-identical at any Params.Workers.
	AxisWorkers Axes = 1 << iota
	// AxisSweep: Params.Sweep replaces the experiment's sweep list.
	AxisSweep
)

// Spec registers one experiment. Title and Claim live on the Table the
// spec renders; ID must equal that Table's ID.
type Spec struct {
	ID   string
	Run  func(seed uint64, p Params) *Table
	Axes Axes
}

// Registry is the experiment suite in report order. Everything that
// enumerates experiments — All, cmd/benchreport's selection and flags,
// the golden/determinism/worker-invariance tests and the root
// benchmarks — derives from this one list.
var Registry = []Spec{
	{ID: "E1", Run: seedOnly(E1BusDoS)},
	{ID: "E2", Run: seedOnly(E2SideChannel)},
	{ID: "E3", Run: seedOnly(E3FleetCompromise)},
	{ID: "E4", Run: seedOnly(E4Pseudonym)},
	{ID: "E5", Run: seedOnly(E5Tradeoff)},
	{ID: "E6", Run: seedOnly(E6Verification)},
	{ID: "E7", Run: seedOnly(E7AuthenticatedCAN)},
	{ID: "E8", Run: seedOnly(E8Gateway)},
	{ID: "E9", Run: seedOnly(E9Relay)},
	{ID: "E10", Run: seedOnly(E10OTA)},
	{ID: "E11", Run: seedOnly(E11IDS)},
	{ID: "E12", Run: seedOnly(E12Lifetime)},
	{ID: "E13", Run: seedOnly(E13DiagnosticAccess)},
	{ID: "E14", Run: seedOnly(E14BusOff)},
	{ID: "E15", Run: seedOnly(E15VerifyScaling)},
	{ID: "E16", Run: seedOnly(E16CrossMediumGateway)},
	{ID: "E17", Run: E17Zonal, Axes: AxisSweep},
	{ID: "E18", Run: E18Fleet, Axes: AxisWorkers | AxisSweep},
	{ID: "E19", Run: E19KernelPar, Axes: AxisWorkers | AxisSweep},
	{ID: "E20", Run: E20Observability, Axes: AxisWorkers | AxisSweep},
	{ID: "E21", Run: E21MediumIDS, Axes: AxisWorkers},
	{ID: "E22", Run: E22Campaign, Axes: AxisWorkers},
	{ID: "A1", Run: seedOnly(A1MACTruncation)},
	{ID: "A2", Run: seedOnly(A2BoundingThreshold)},
}

// seedOnly adapts an experiment without axes to the Spec signature.
func seedOnly(run func(seed uint64) *Table) func(uint64, Params) *Table {
	return func(seed uint64, _ Params) *Table { return run(seed) }
}

// Lookup returns the registered spec with the given ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range Registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// All runs every registered experiment at the given seed with zero
// Params and returns the tables in registry order. This is the one-call
// full reproduction.
func All(seed uint64) []*Table {
	tables := make([]*Table, len(Registry))
	for i, s := range Registry {
		tables[i] = s.Run(seed, Params{})
	}
	return tables
}
