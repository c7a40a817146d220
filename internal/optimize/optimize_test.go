package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGoldenSection(t *testing.T) {
	x, fx := GoldenSection(func(x float64) float64 { return (x - 2.5) * (x - 2.5) }, 0, 10, 1e-10)
	if math.Abs(x-2.5) > 1e-6 {
		t.Errorf("minimizer = %v, want 2.5", x)
	}
	if fx > 1e-10 {
		t.Errorf("minimum = %v", fx)
	}
	// Reversed interval and default tolerance also work.
	x, _ = GoldenSection(func(x float64) float64 { return math.Cos(x) }, 4, 2, 0)
	if math.Abs(x-math.Pi) > 1e-6 {
		t.Errorf("minimizer of cos on [2,4] = %v, want π", x)
	}
}

func TestGoldenSectionWithInfRegion(t *testing.T) {
	f := func(x float64) float64 {
		if x < 1 {
			return math.Inf(1)
		}
		return (x - 3) * (x - 3)
	}
	x, _ := GoldenSection(f, 0, 10, 1e-9)
	if math.Abs(x-3) > 1e-5 {
		t.Errorf("minimizer = %v, want 3", x)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want √2", root)
	}
	// Endpoint roots are returned directly.
	root, err = Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
	// No sign change -> ErrBracket.
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-12); err != ErrBracket {
		t.Errorf("err = %v, want ErrBracket", err)
	}
}

func TestBisectRandomRootsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := r.Float64()*100 - 50
		g := func(x float64) float64 { return math.Tanh(x - root) }
		got, err := Bisect(g, root-30, root+17, 1e-10)
		return err == nil && math.Abs(got-root) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
