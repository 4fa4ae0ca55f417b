package experiments

import "testing"

func TestE13DiagnosticAccessShape(t *testing.T) {
	t.Parallel()
	tb := seed1(t, "E13")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	if cell(t, tb, 0, 3) != "yes" {
		t.Fatalf("weak-xor sniff attack failed\n%s", tb)
	}
	if cell(t, tb, 2, 3) != "no" {
		t.Fatalf("she-cmac fell to sniffing\n%s", tb)
	}
}
