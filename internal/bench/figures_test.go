package bench

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// tinyFigures is the study at test size: three draws per point and 4 %
// extents (N_o 200–240), which keeps the paper's shapes.
func tinyFigures(sweeps ...string) FigureSpec {
	return FigureSpec{Samples: 3, Scale: 0.04, Seed: 1, Sweeps: sweeps}
}

// measure runs one registered sweep at test size on the given x-values (its
// first and last when none are given — what the shape claims compare, and a
// third of the work on the sweeps whose extents do not scale).
func measure(t *testing.T, name string, xs ...float64) []point {
	t.Helper()
	sw, err := lookupSweep(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) == 0 {
		xs = []float64{sw.xs[0], sw.xs[len(sw.xs)-1]}
	}
	var pts []point
	for _, x := range xs {
		pt, err := runPoint(tinyFigures(), sw, x)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	return pts
}

// TestFigureShapes: every registered sweep, at test size, reproduces the
// shape the gate claims for it — the paper's Figures 9–11, E10 and E12 (E7
// and E8 have cells and no claim).
func TestFigureShapes(t *testing.T) {
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			var xs []float64
			if sw.name == "faults" {
				xs = sw.xs // every dead-database count is gated
			}
			pts := measure(t, sw.name, xs...)
			claimed := 0
			for _, pt := range pts[1:] {
				for what, holds := range shapes(sw.name, pts[0], pt) {
					claimed++
					if !holds {
						t.Errorf("not reproduced at %s = %g: %s\n%+v", sw.xLabel, pt[sw.strategies[0]].X, what, pt)
					}
				}
			}
			if gated := sw.name != "signatures" && sw.name != "network"; gated != (claimed > 0) {
				t.Errorf("%d claims checked", claimed)
			}
		})
	}
}

// TestFiguresMatchParentHarness pins the fold to the digit: total_ms,
// response_ms and net_kb of figure9, faults and indexes at test size are
// what internal/sim's Figure9, FaultSweep and IndexAblation printed (%.3f)
// at commit cfaa95b, the last one that had them, with Samples 3, Seed 1,
// N_o 200–240 and these x-values.
func TestFiguresMatchParentHarness(t *testing.T) {
	golden := map[string]string{
		"figure9": `
figure9,40,CA,2007.017,871.220,46.624
figure9,40,BL,888.593,336.997,13.213
figure9,40,PL,1553.720,590.981,25.416
figure9,240,CA,11777.523,5131.576,267.733
figure9,240,BL,5037.816,1871.156,67.699
figure9,240,PL,8910.576,3336.856,137.864`,
		"faults": `
faults,0,CA,11015.971,4772.409,249.760
faults,0,BL,4605.767,1716.407,59.816
faults,0,PL,8118.848,3060.603,124.349
faults,1,CA,7334.580,4186.881,167.488
faults,1,BL,2776.477,1524.011,31.323
faults,1,PL,4494.834,2420.729,53.704
faults,2,CA,3684.856,3684.856,83.824
faults,2,BL,1325.289,1325.289,10.579
faults,2,PL,1810.904,1810.904,10.579`,
		"indexes": `
indexes,0.1,CA,74704.938,32074.649,1674.896
indexes,0.1,BL,17819.838,7019.214,15.709
indexes,0.1,BL+idx,7166.437,3989.826,15.709
indexes,0.9,CA,74744.789,32114.500,1674.896
indexes,0.9,BL,52039.962,20127.547,1260.408
indexes,0.9,BL+idx,53124.683,20538.923,1260.408`,
	}
	for name, want := range golden {
		sw, _ := lookupSweep(name)
		var xs []float64
		if name == "faults" {
			xs = sw.xs
		}
		var got strings.Builder
		for _, pt := range measure(t, name, xs...) {
			for _, s := range sw.strategies {
				c := pt[s]
				fmt.Fprintf(&got, "\n%s,%g,%s,%.3f,%.3f,%.3f", c.Figure, c.X, c.Strategy, c.TotalMillis, c.ResponseMillis, c.NetKB)
			}
		}
		if got.String() != want {
			t.Errorf("%s moved off the parent harness's numbers:\n got:%s\nwant:%s", name, got.String(), want)
		}
	}
}

// TestFiguresDeterminism: two runs of one spec render byte-identical
// reports, and the seed reaches the draws.
func TestFiguresDeterminism(t *testing.T) {
	render := func(spec FigureSpec) []byte {
		r, err := RunFigures(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("RunFigures: %v", err)
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	spec := tinyFigures("figure9", "faults")
	a, b := render(spec), render(spec)
	if !bytes.Equal(a, b) {
		t.Fatalf("same spec produced different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
	spec.Seed = 2
	if bytes.Equal(a, render(spec)) {
		t.Error("different seeds produced byte-identical reports")
	}
}

// TestStdDevReported: a point's cells carry the spread across its draws.
func TestStdDevReported(t *testing.T) {
	for _, c := range measure(t, "figure9", 4000)[0] {
		// Three randomized workloads never coincide exactly.
		if c.TotalStd <= 0 || c.ResponseStd <= 0 {
			t.Errorf("%s: zero spread %+v", c.Strategy, c)
		}
		if c.TotalStd > c.TotalMillis {
			t.Errorf("%s: implausible spread %+v", c.Strategy, c)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	if m, s := meanStd([]float64{2, 4, 6}); m != 4 || s < 1.99 || s > 2.01 {
		t.Errorf("meanStd(2, 4, 6) = %g, %g", m, s)
	}
	if m, s := meanStd([]float64{5}); m != 5 || s != 0 {
		t.Errorf("meanStd(5) = %g, %g", m, s)
	}
}

// TestFigureTables: the text form is the paper's figure pair — a total and
// a response table with a column per strategy and a row per x.
func TestFigureTables(t *testing.T) {
	spec := tinyFigures("figure11")
	spec.Samples = 1
	r, err := RunFigures(context.Background(), spec, nil)
	if r == nil {
		t.Fatal(err) // one draw may miss a shape; the tables render regardless
	}
	text := FigureTables(r.Cells.([]FigureCell))
	for _, want := range []string{
		"selectivity of the local predicates", "(a) total execution time (ms)", "(b) response time (ms)",
		"predicate selectivity", "CA", "BL", "PL", "\n0.5 ", "\n0.9 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("tables missing %q:\n%s", want, text)
		}
	}
	if rows := strings.Count(text, "\n0."); rows != 2*9 {
		t.Errorf("figure11 rendered %d rows, want 9 per table:\n%s", rows, text)
	}
}

// TestScaled: the one extent-scaling rule rounds and keeps a real extent.
func TestScaled(t *testing.T) {
	for _, tc := range []struct {
		n     int
		scale float64
		want  int
	}{{1000, 0.5, 500}, {5000, 0.3, 1500}, {1100, 0.3, 330}, {1000, 0.0125, 20}, {1000, 0.001, 20}, {100, 1, 100}} {
		if got := scaled(tc.n, tc.scale); got != tc.want {
			t.Errorf("scaled(%d, %g) = %d, want %d", tc.n, tc.scale, got, tc.want)
		}
	}
}
