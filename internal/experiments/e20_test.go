package experiments

import "testing"

// TestE20ModesShareDeterministicMetrics pins two structural properties:
// enabling tracing must not perturb the merged metrics, and the off mode
// must produce no observability artifacts at all.
func TestE20ModesShareDeterministicMetrics(t *testing.T) {
	t.Parallel()
	tbl := E20Observability(5, Params{Sweep: []int{250}})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 modes", len(tbl.Rows))
	}
	off, metrics, traced := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	// Columns: fleet, mode, keys, frames ok, deliveries, appends, incident
	// vehicles, traces kept, incident traces.
	for c := 2; c <= 5; c++ {
		if off[c] != "0" {
			t.Fatalf("off mode column %q = %s, want 0", tbl.Columns[c], off[c])
		}
		if metrics[c] != traced[c] {
			t.Fatalf("column %q differs between metrics (%s) and metrics+traces (%s) — tracing perturbed the registry",
				tbl.Columns[c], metrics[c], traced[c])
		}
	}
	if off[7] != "0" || metrics[7] != "0" {
		t.Fatal("traces kept must be 0 outside the traced mode")
	}
	if traced[7] == "0" {
		t.Fatal("traced mode kept no traces")
	}
	// Incident vehicles are counted from audit state, identically in all
	// three modes — observability must never change simulation behavior.
	if off[6] != metrics[6] || metrics[6] != traced[6] {
		t.Fatalf("incident vehicles differ across modes: %s / %s / %s", off[6], metrics[6], traced[6])
	}
}
