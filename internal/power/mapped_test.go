package power_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/power"
	"repro/internal/techmap"
)

// EstimateMapped sums a float per signal; the total must not depend on
// the order the signals are visited in, so repeated calls on one mapped
// netlist agree to the bit.
func TestEstimateMappedRepeatable(t *testing.T) {
	for _, name := range []string{"i4", "pcler8"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no circuit %s", name)
		}
		mapped, err := techmap.Map(c.Build(), techmap.Library())
		if err != nil {
			t.Fatal(err)
		}
		first := power.EstimateMapped(mapped).Total
		for i := 1; i < 100; i++ {
			if got := power.EstimateMapped(mapped).Total; math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("%s: call %d returned %.17g, first call %.17g", name, i, got, first)
			}
		}
	}
}
