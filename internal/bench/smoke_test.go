package bench

import (
	"context"
	"fmt"
	"testing"
)

// TestSmokeSmall runs a few small circuits end to end.
func TestSmokeSmall(t *testing.T) {
	opt := DefaultOptions()
	for _, name := range []string{"z4ml", "cm82a", "majority", "bcd-div3", "f2", "rd53"} {
		c, ok := ByName(name)
		if !ok {
			t.Fatalf("missing circuit %s", name)
		}
		row := RunCircuit(context.Background(), c, opt)
		if row.Err != "" {
			t.Errorf("%s: %s", name, row.Err)
			continue
		}
		fmt.Printf("%-10s sis=%d ours=%d mapped %d/%d vs %d/%d improve=%.1f%% power=%.1f%%\n",
			name, row.SISLits, row.OursLits, row.SISGates, row.SISMapLits, row.OursGates, row.OursMapLits, row.ImproveLits, row.ImprovePower)
	}
}
