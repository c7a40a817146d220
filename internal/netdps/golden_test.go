package netdps

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
)

// TestMeasureAnalyticGolden pins the exact bits MeasureAnalytic returns for
// 64 fixed assignments on IPFwd-L1 ×8 and ×2 at noise seed 3. Every journal
// and measurement cache stores these values, so any change to the solver's
// arithmetic order, the noise hash or the noise draw shows up here first.
// Each line of the golden file is "instances ctx,ctx,... float64-bits-hex".
// The file was captured before the solver and noise draw were optimised;
// never regenerate it to make this test pass.
func TestMeasureAnalyticGolden(t *testing.T) {
	f, err := os.Open("testdata/measure_analytic.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	testbeds := map[int]*Testbed{
		8: newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8, WithSeed(3)),
		2: newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2, WithSeed(3)),
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("line %d: malformed %q", lines, sc.Text())
		}
		inst, err := strconv.Atoi(fields[0])
		if err != nil || testbeds[inst] == nil {
			t.Fatalf("line %d: bad instance count %q", lines, fields[0])
		}
		tb := testbeds[inst]
		var ctx []int
		for _, s := range strings.Split(fields[1], ",") {
			c, err := strconv.Atoi(s)
			if err != nil {
				t.Fatalf("line %d: bad context %q", lines, s)
			}
			ctx = append(ctx, c)
		}
		want, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			t.Fatalf("line %d: bad bits %q", lines, fields[2])
		}
		got, err := tb.MeasureAnalytic(assign.Assignment{Topo: tb.Machine.Topo, Ctx: ctx})
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if bits := math.Float64bits(got); bits != want {
			t.Errorf("line %d (×%d %v): MeasureAnalytic bits %016x (%v), golden %016x (%v)",
				lines, inst, ctx, bits, got, want, math.Float64frombits(want))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 128 {
		t.Fatalf("golden file has %d lines, want 128", lines)
	}
}
