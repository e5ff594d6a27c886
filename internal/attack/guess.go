package attack

import (
	"container/heap"
	"sort"
)

// §7.1 observes that "such single errors in inference could be addressed
// with a small number of guesses": for most texts only one key press is
// wrong, and the classifier knows which positions were uncertain. This
// file turns an inference into a ranked list of credential candidates by
// substituting runner-up keys at the positions with the smallest
// classification margins, in best-first (lowest total margin cost) order.

// guessSwap is one possible correction: replace the key at pos with its
// runner-up, at the given confidence cost.
type guessSwap struct {
	pos  int
	alt  rune
	cost float64
}

// guessState is a subset of applied swaps on the best-first frontier.
type guessState struct {
	cost    float64
	applied []int // indices into the sorted swap list, ascending
}

type guessHeap []guessState

func (h guessHeap) Len() int           { return len(h) }
func (h guessHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h guessHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *guessHeap) Push(x any)        { *h = append(*h, x.(guessState)) }
func (h *guessHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GuessCandidates returns up to k credential guesses ranked from most to
// least likely. The first candidate is always the raw inference; later
// ones swap runner-up keys in at the least-confident positions. Subsets
// of swaps are enumerated in nondecreasing total-cost order via the
// standard k-best frontier (extend-last / replace-last expansion).
func GuessCandidates(keys []InferredKey, k int) []string {
	if k <= 0 {
		return nil
	}
	base := make([]rune, len(keys))
	for i, key := range keys {
		base[i] = key.R
	}

	var swaps []guessSwap
	for i, key := range keys {
		if key.Alt == 0 || key.Alt == key.R {
			continue
		}
		cost := key.Margin
		if cost < 0 {
			cost = 0
		}
		swaps = append(swaps, guessSwap{pos: i, alt: key.Alt, cost: cost})
	}
	sort.Slice(swaps, func(i, j int) bool { return swaps[i].cost < swaps[j].cost })

	apply := func(applied []int) string {
		out := append([]rune(nil), base...)
		for _, si := range applied {
			out[swaps[si].pos] = swaps[si].alt
		}
		return string(out)
	}

	pq := &guessHeap{}
	heap.Push(pq, guessState{})
	out := make([]string, 0, k)
	seen := map[string]bool{}
	for pq.Len() > 0 && len(out) < k {
		st := heap.Pop(pq).(guessState)
		if text := apply(st.applied); !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
		last := -1
		if len(st.applied) > 0 {
			last = st.applied[len(st.applied)-1]
		}
		next := last + 1
		if next >= len(swaps) {
			continue
		}
		grown := append(append([]int(nil), st.applied...), next)
		heap.Push(pq, guessState{cost: st.cost + swaps[next].cost, applied: grown})
		if len(st.applied) > 0 {
			replaced := append(append([]int(nil), st.applied[:len(st.applied)-1]...), next)
			heap.Push(pq, guessState{cost: st.cost - swaps[last].cost + swaps[next].cost, applied: replaced})
		}
	}
	return out
}

// GuessRank returns the 1-based position of truth within the first k
// candidates, or 0 if absent — the paper's "number of guesses needed".
func GuessRank(keys []InferredKey, truth string, k int) int {
	for i, cand := range GuessCandidates(keys, k) {
		if cand == truth {
			return i + 1
		}
	}
	return 0
}
