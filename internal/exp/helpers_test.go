package exp

import (
	"math"
	"testing"

	"gpuleak/internal/stats"
)

func TestGroupAccuraciesAligned(t *testing.T) {
	got := GroupAccuracies([]string{"abc1"}, []string{"abc1"})
	if got["lower"] != 1 || got["number"] != 1 {
		t.Fatalf("perfect match scored %v", got)
	}
}

func TestGroupAccuraciesSurvivesDroppedChar(t *testing.T) {
	// A dropped leading char must not zero out the rest via misalignment.
	got := GroupAccuracies([]string{"bcdef"}, []string{"abcdef"})
	if got["lower"] < 0.8 {
		t.Fatalf("greedy alignment failed: %v", got)
	}
}

func TestScoreConfusionSubstitution(t *testing.T) {
	c := stats.NewConfusion()
	scoreConfusion(c, "axc", "abc")
	if c.Accuracy('a') != 1 || c.Accuracy('c') != 1 {
		t.Fatal("correct chars penalized")
	}
	if c.Accuracy('b') != 0 {
		t.Fatal("substitution not recorded")
	}
}

func TestScoreConfusionInsertionDeletion(t *testing.T) {
	c := stats.NewConfusion()
	scoreConfusion(c, "abxc", "abc") // one extra inferred key
	if c.Accuracy('a') != 1 || c.Accuracy('b') != 1 || c.Accuracy('c') != 1 {
		t.Fatalf("insertion misaligned scoring")
	}
	c2 := stats.NewConfusion()
	scoreConfusion(c2, "ac", "abc") // one missed key
	if c2.Accuracy('b') != 0 {
		t.Fatal("deletion not penalized")
	}
	if c2.Accuracy('a') != 1 || c2.Accuracy('c') != 1 {
		t.Fatal("deletion misaligned scoring")
	}
}

func TestTrialsScaling(t *testing.T) {
	if (Options{Quick: true}).Trials(300) != 30 {
		t.Fatal("quick scaling wrong")
	}
	if (Options{Quick: true}).Trials(10) != 4 {
		t.Fatal("quick floor wrong")
	}
	if (Options{}).Trials(300) != 300 {
		t.Fatal("full scaling wrong")
	}
}

func TestTrainModelCacheStable(t *testing.T) {
	a, err := TrainModel(DefaultConfig(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainModel(DefaultConfig(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("model cache miss for identical config")
	}
}

func TestBatchMetrics(t *testing.T) {
	b := &BatchResult{
		Inferred: []string{"abcd", "abxd"},
		Truth:    []string{"abcd", "abcd"},
	}
	if b.TextAccuracy() != 0.5 {
		t.Fatalf("text accuracy %v", b.TextAccuracy())
	}
	if math.Abs(b.CharAccuracy()-7.0/8) > 1e-9 {
		t.Fatalf("char accuracy %v", b.CharAccuracy())
	}
	if b.MeanErrors() != 0.5 {
		t.Fatalf("mean errors %v", b.MeanErrors())
	}
}
