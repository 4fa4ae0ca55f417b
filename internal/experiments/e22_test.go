package experiments

import "testing"

// TestE22SeedInvariantStructure pins the cross-seed stability the
// replication machinery relies on: every cell of E22 is a function of
// index predicates and published-artifact counts, never of seed-derived
// randomness, so two different seeds must produce identical tables and
// multi-seed replication aggregates with zero variance.
func TestE22SeedInvariantStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 24 full campaigns; skipped in -short mode")
	}
	t.Parallel()
	a := seed1(t, "E22").String()
	b := E22Campaign(99, Params{}).String()
	if a != b {
		t.Fatalf("E22 cells drifted with the seed — a string cell must have picked up seed-derived state:\n--- seed=1\n%s\n--- seed=99\n%s", a, b)
	}
}
