package experiments

import "testing"

func TestE14BusOffShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E14")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// Below the +8/-1 breakeven (1/9) the victim survives; above it dies.
	if cell(t, tb, 0, 1) != "error-active" || cell(t, tb, 1, 1) != "error-active" {
		t.Fatalf("low hit rates killed the victim\n%s", tb)
	}
	for i := 2; i < 5; i++ {
		if cell(t, tb, i, 1) != "bus-off" {
			t.Fatalf("hit rate row %d did not reach bus-off\n%s", i, tb)
		}
	}
	// Bystander unaffected: ~1000 frames in every row.
	for i := range tb.Rows {
		if cellF(t, tb, i, 4) < 950 {
			t.Fatalf("bystander harmed in row %d\n%s", i, tb)
		}
	}
	// Time to bus-off shrinks with hit probability.
	if cell(t, tb, 4, 2) >= cell(t, tb, 2, 2) && cell(t, tb, 2, 2) != "survives" {
		// string compare is crude; just require row 4 is milliseconds.
		t.Logf("times: %s vs %s", cell(t, tb, 2, 2), cell(t, tb, 4, 2))
	}
}
