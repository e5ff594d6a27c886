package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if s := Std(xs); math.Abs(s-2) > 1e-9 {
		t.Fatalf("std = %v", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"abc", "xabc", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Levenshtein is a metric (symmetry, identity, triangle).
func TestLevenshteinMetric(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		if len(c) > 12 {
			c = c[:12]
		}
		ab := Levenshtein(a, b)
		ba := Levenshtein(b, a)
		if ab != ba {
			return false
		}
		if Levenshtein(a, a) != 0 {
			return false
		}
		return Levenshtein(a, c) <= ab+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracies(t *testing.T) {
	truth := []string{"abcd", "efgh", "ijkl"}
	inferred := []string{"abcd", "efgx", "ijkl"}
	if got := TextAccuracy(inferred, truth); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("text accuracy = %v", got)
	}
	if got := CharAccuracy(inferred, truth); math.Abs(got-11.0/12) > 1e-9 {
		t.Fatalf("char accuracy = %v", got)
	}
	if got := MeanErrors(inferred, truth); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("mean errors = %v", got)
	}
}

func TestAccuracyMissingInference(t *testing.T) {
	truth := []string{"abcd"}
	if got := TextAccuracy(nil, truth); got != 0 {
		t.Fatalf("text accuracy = %v", got)
	}
	if got := CharAccuracy(nil, truth); got != 0 {
		t.Fatalf("char accuracy = %v", got)
	}
}

func TestConfusion(t *testing.T) {
	c := NewConfusion()
	c.Add('a', 'a')
	c.Add('a', 'a')
	c.Add('a', 'b')
	c.Add('b', 'b')
	if got := c.Accuracy('a'); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy(a) = %v", got)
	}
	if got := c.Accuracy('z'); got != 1 {
		t.Fatalf("unseen accuracy = %v", got)
	}
	if got := c.Overall(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("overall = %v", got)
	}
	seen := c.Seen()
	if len(seen) != 2 || seen[0] != 'a' || seen[1] != 'b' {
		t.Fatalf("seen = %v", seen)
	}
}

func TestCharGroup(t *testing.T) {
	cases := map[rune]string{'a': "lower", 'Z': "upper", '7': "number", '.': "symbol", '@': "symbol"}
	for r, want := range cases {
		if got := CharGroup(r); got != want {
			t.Errorf("CharGroup(%q) = %s", r, got)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"name", "value"}}
	tab.AddRow("alpha", Pct(0.813))
	tab.AddRow("b", Fmt(1.5))
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "81.3%") || !strings.Contains(s, "1.500") {
		t.Fatalf("table render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("x|y", "1")
	md := tab.Markdown()
	if !strings.Contains(md, "### demo") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown:\n%s", md)
	}
	if !strings.Contains(md, `x\|y`) {
		t.Fatal("pipe not escaped")
	}
}
