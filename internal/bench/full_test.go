package bench

import (
	"context"
	"os"
	"testing"
)

// TestFullTable2 runs the complete Table 2 reproduction. It is skipped in
// -short mode (the full run takes a while on the big circuits).
func TestFullTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 run skipped in -short mode")
	}
	var rows []Row
	for _, c := range Circuits() {
		rows = append(rows, RunCircuit(context.Background(), c, DefaultOptions()))
	}
	arith, all := Summaries(rows)
	WriteTable(os.Stdout, rows, arith, all)
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Name, r.Err)
		}
		if !r.Verified {
			t.Errorf("%s: verification failed", r.Name)
		}
	}
	if arith.ImproveLits <= 0 {
		t.Errorf("arithmetic improvement = %.1f%%, want > 0 (paper: 17.3%%)", arith.ImproveLits)
	}
	if all.ImproveLits <= 0 {
		t.Errorf("overall improvement = %.1f%%, want > 0 (paper: 11.9%%)", all.ImproveLits)
	}
}
