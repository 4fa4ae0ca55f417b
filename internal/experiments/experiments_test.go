package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests assert the *shape* of each experiment's result — who wins,
// and in which direction the trend runs — which is the reproduction
// criterion for a paper whose claims are qualitative.

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); table:\n%s", tb.ID, row, col, tb)
	}
	return tb.Rows[row][col]
}

func cellF(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tb, row, col), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d)=%q not numeric", tb.ID, row, col, cell(t, tb, row, col))
	}
	return v
}

func TestE1DoSShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E1")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// Load and victim misses grow with attack rate.
	baseLoad := cellF(t, tb, 0, 1)
	worstLoad := cellF(t, tb, 3, 1)
	if worstLoad <= baseLoad {
		t.Fatalf("load did not grow: %.3f -> %.3f\n%s", baseLoad, worstLoad, tb)
	}
	baseMiss := cellF(t, tb, 0, 3)
	worstMiss := cellF(t, tb, 3, 3)
	if baseMiss != 0 {
		t.Fatalf("misses without attack: %v\n%s", baseMiss, tb)
	}
	if worstMiss <= 0.5 {
		t.Fatalf("full-rate DoS missed only %.3f\n%s", worstMiss, tb)
	}
	// The IDS sees the flood.
	if cellF(t, tb, 3, 5) == 0 {
		t.Fatalf("no IDS alerts under flood\n%s", tb)
	}
}

func TestE2SideChannelShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E2")
	// More noise -> more traces (rows 0..2 unmasked).
	n0 := cellF(t, tb, 0, 3)
	n1 := cellF(t, tb, 1, 3)
	if n1 < n0 {
		t.Fatalf("noise did not raise trace count\n%s", tb)
	}
	// First-order CPA fails against masking (row 3).
	if cell(t, tb, 3, 4) != "no" {
		t.Fatalf("masking fell to first-order CPA\n%s", tb)
	}
	// Second-order succeeds but needs more traces than unmasked row 0.
	if cell(t, tb, 4, 4) != "yes" {
		t.Fatalf("second-order CPA failed\n%s", tb)
	}
	n4 := cellF(t, tb, 4, 3)
	if n4 <= n0 {
		t.Fatalf("masking did not raise attack cost\n%s", tb)
	}
}

func TestE3FleetShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E3")
	shared := cellF(t, tb, 0, 4)
	perModel := cellF(t, tb, 1, 4)
	perDevice := cellF(t, tb, 2, 4)
	if shared != 1.0 {
		t.Fatalf("shared-key fraction %.3f\n%s", shared, tb)
	}
	if perModel >= shared || perModel <= perDevice {
		t.Fatalf("per-model not between: %v %v %v\n%s", shared, perModel, perDevice, tb)
	}
	if perDevice != 0.001 {
		t.Fatalf("per-device fraction %.4f\n%s", perDevice, tb)
	}
}

func TestE4PseudonymShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E4")
	// Row 0: no rotation, naive tracker -> near-full tracking.
	if cellF(t, tb, 0, 2) < 0.9 {
		t.Fatalf("no-rotation tracking too low\n%s", tb)
	}
	// Fast rotation defeats the naive tracker (row 6: 1s rotation naive).
	if cellF(t, tb, 6, 2) > 0.3 {
		t.Fatalf("rotation did not defeat naive tracker\n%s", tb)
	}
	// The continuity tracker substantially recovers tracking (row 7).
	if cellF(t, tb, 7, 2) < cellF(t, tb, 6, 2) {
		t.Fatalf("continuity tracker weaker than naive\n%s", tb)
	}
}

func TestE5TradeoffShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E5")
	// static-city overloads; static-highway is exposed; adaptive is clean.
	if cellF(t, tb, 0, 1) == 0 {
		t.Fatalf("static-city no overload\n%s", tb)
	}
	if cellF(t, tb, 1, 3) == 0 {
		t.Fatalf("static-highway no exposure\n%s", tb)
	}
	if cellF(t, tb, 2, 1) != 0 || cellF(t, tb, 2, 3) != 0 {
		t.Fatalf("adaptive not clean\n%s", tb)
	}
}

func TestE6VerificationShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E6")
	last := len(tb.Rows) - 1
	exhaustive := cellF(t, tb, last, 1)
	pairwise := cellF(t, tb, last, 2)
	if pairwise*100 > exhaustive {
		t.Fatalf("pairwise %.0f not ≪ exhaustive %.0f\n%s", pairwise, exhaustive, tb)
	}
	// Exhaustive cost grows monotonically.
	for i := 1; i <= last; i++ {
		if cellF(t, tb, i, 1) <= cellF(t, tb, i-1, 1) {
			t.Fatalf("exhaustive not growing at row %d\n%s", i, tb)
		}
	}
}

func TestE7AuthCANShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E7")
	// Rows alternate software/SHE per rate. At 2000fps (rows 6,7) software
	// misses crypto deadlines, SHE does not.
	swMiss := cellF(t, tb, 6, 4)
	sheMiss := cellF(t, tb, 7, 4)
	if swMiss == 0 {
		t.Fatalf("software crypto never missed at 2kfps\n%s", tb)
	}
	if sheMiss != 0 {
		t.Fatalf("SHE missed %v at 2kfps\n%s", sheMiss, tb)
	}
	// At 200fps both hold.
	if cellF(t, tb, 0, 4) != 0 || cellF(t, tb, 1, 4) != 0 {
		t.Fatalf("misses at 200fps\n%s", tb)
	}
}

func TestE8GatewayShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E8")
	noGW := cellF(t, tb, 0, 1)
	fine := cellF(t, tb, 2, 1)
	if noGW < 1000 {
		t.Fatalf("no-gateway config blocked the attack?\n%s", tb)
	}
	if fine != 0 {
		t.Fatalf("fine-grained rules leaked %v frames\n%s", fine, tb)
	}
	// Legit nav traffic flows in every configuration except post-quarantine.
	if cellF(t, tb, 2, 2) == 0 {
		t.Fatalf("fine-grained rules blocked legit traffic\n%s", tb)
	}
	// Quarantine reflex fired in the last config.
	if cell(t, tb, 3, 3) != "true" {
		t.Fatalf("quarantine reflex did not fire\n%s", tb)
	}
	// And it stopped the attack early: fewer frames than no-gateway.
	if cellF(t, tb, 3, 1) >= noGW {
		t.Fatalf("quarantine did not reduce attack volume\n%s", tb)
	}
}

func TestE9RelayShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E9")
	find := func(scenario string, bounding string) []string {
		for _, r := range tb.Rows {
			if r[0] == scenario && r[1] == bounding {
				return r
			}
		}
		t.Fatalf("row %q/%v missing\n%s", scenario, bounding, tb)
		return nil
	}
	if find("owner at the door handle", "true")[5] != "true" {
		t.Fatalf("legit unlock failed under bounding\n%s", tb)
	}
	if find("relay to fob in house", "false")[5] != "true" {
		t.Fatalf("relay failed without bounding\n%s", tb)
	}
	if find("relay to fob in house", "true")[5] != "false" {
		t.Fatalf("bounding failed to stop relay\n%s", tb)
	}
	if find("zero-latency relay, 1km", "true")[5] != "false" {
		t.Fatalf("bounding failed against light-speed relay\n%s", tb)
	}
}

func TestE10OTAShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E10")
	for _, r := range tb.Rows {
		name, uptane, naive := r[0], r[1], r[2]
		if name == "legitimate update" {
			if uptane != "installed" {
				t.Fatalf("legit update rejected by uptane client\n%s", tb)
			}
			continue
		}
		if !strings.HasPrefix(uptane, "rejected") {
			t.Fatalf("attack %q not rejected by uptane client: %s\n%s", name, uptane, tb)
		}
		_ = naive
	}
	// The naive client falls to at least the replay, downgrade and
	// stolen-key attacks.
	weak := 0
	for _, r := range tb.Rows {
		if r[0] != "legitimate update" && strings.HasPrefix(r[2], "INSTALLED") {
			weak++
		}
	}
	if weak < 3 {
		t.Fatalf("naive client fell to only %d attacks\n%s", weak, tb)
	}
}

func TestE11IDSShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E11")
	get := func(attack, det string) (float64, float64) {
		for _, r := range tb.Rows {
			if r[0] == attack && r[1] == det {
				tpr, _ := strconv.ParseFloat(r[2], 64)
				fpr, _ := strconv.ParseFloat(r[3], 64)
				return tpr, fpr
			}
		}
		t.Fatalf("row %q/%q missing\n%s", attack, det, tb)
		return 0, 0
	}
	// The combined engine catches every attack class.
	for _, atk := range []string{
		"flood (1kHz on 0x0C0)",
		"targeted injection (racing 0x100)",
		"suspension (0x120 silenced)",
		"fuzzing (random payloads on 0x1A0)",
		"unknown diagnostic ID (0x7DF)",
	} {
		if tpr, _ := get(atk, "all four"); tpr != 1 {
			t.Fatalf("combined engine missed %q (TPR=%v)\n%s", atk, tpr, tb)
		}
	}
	// No single detector family covers everything (the ensemble argument).
	for _, det := range []string{"frequency", "interval", "entropy", "spec"} {
		full := true
		for _, atk := range []string{
			"flood (1kHz on 0x0C0)",
			"suspension (0x120 silenced)",
			"fuzzing (random payloads on 0x1A0)",
			"unknown diagnostic ID (0x7DF)",
		} {
			if tpr, _ := get(atk, det); tpr != 1 {
				full = false
			}
		}
		if full {
			t.Fatalf("detector %q alone covered everything — ensemble argument void\n%s", det, tb)
		}
	}
	// Clean baseline: the combined engine stays quiet.
	if _, fpr := get("none (clean baseline)", "all four"); fpr > 0.5 {
		t.Fatalf("combined engine FP rate %.3f on clean traffic\n%s", fpr, tb)
	}
}

func TestE12LifetimeShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E12")
	extCurrent := cellF(t, tb, 0, 3)
	fixCurrent := cellF(t, tb, 1, 3)
	if extCurrent != 15 {
		t.Fatalf("extensible vehicle not current for full life\n%s", tb)
	}
	if fixCurrent >= extCurrent {
		t.Fatalf("fixed architecture not worse\n%s", tb)
	}
	if cellF(t, tb, 1, 4) < 10 {
		t.Fatalf("fixed vehicle exposure too low\n%s", tb)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "T", Title: "title", Claim: "claim", Columns: []string{"a", "bee"}}
	tb.AddRow("x", 1.5)
	tb.AddRow(2, "y")
	s := tb.String()
	if !strings.Contains(s, "T: title") || !strings.Contains(s, "claim") {
		t.Fatalf("render:\n%s", s)
	}
	if !strings.Contains(s, "1.500") {
		t.Fatalf("float formatting:\n%s", s)
	}
}
