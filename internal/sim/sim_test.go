package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000 {
		t.Fatalf("Second = %d", Second)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Fatalf("Millis() = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500us"},
		{2500, "2.5ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d/100 equal", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(7)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("Intn never produced %d", i)
		}
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(11)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %v, want ~2", std)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(13)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3)
	}
	if m := sum / n; math.Abs(m-3) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~3", m)
	}
}

func TestRandBool(t *testing.T) {
	r := NewRand(17)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 2800 || hits > 3200 {
		t.Fatalf("Bool(0.3) hit rate = %d/10000", hits)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRand(seed)
		p := r.Perm(20)
		seen := make(map[int]bool)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(5)
	child := r.Split()
	// Drawing from the child must not change the parent's future stream
	// relative to a parent that also split but never used the child.
	r2 := NewRand(5)
	_ = r2.Split()
	for i := 0; i < 10; i++ {
		child.Uint64()
	}
	for i := 0; i < 10; i++ {
		if r.Uint64() != r2.Uint64() {
			t.Fatal("child draws perturbed parent stream")
		}
	}
}
