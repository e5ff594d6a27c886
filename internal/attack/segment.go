package attack

import (
	"sort"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// The §5.1 greedy engine combines consecutive PC changes into a key press
// "whenever possible", which can misattribute fragments (the paper's
// example: combining the changes at times 12 and 13 of Figure 11).
// Addressing that, as the paper notes, "requires knowledge about the
// entire trace", i.e. eavesdropping only after the input finishes. This
// file implements that offline mode: a dynamic program segments each run
// of unexplained changes into the explanation with the fewest leftovers,
// trading timeliness (results only at the end) for accuracy.

// OfflineResult is the outcome of whole-trace segmentation.
type OfflineResult struct {
	Keys []InferredKey
	// Unexplained counts residual deltas no segmentation could account
	// for (system noise).
	Unexplained int
}

// SegmentTrace performs two-pass whole-trace inference:
//
//  1. a streaming pass (the §5 engine) pins down confident key presses,
//     noise events, app-switch spans and corrections;
//  2. runs of deltas the engine left unexplained are re-segmented with a
//     dynamic program that considers every contiguous grouping inside the
//     split window, not just the greedy left-to-right one.
//
// Recovered keys from pass 2 are merged into the timeline with the same
// Ti duplication rule.
func SegmentTrace(m *Model, ds []trace.Delta, interval sim.Time, opts OnlineOptions) OfflineResult {
	// Pass 1: streaming engine, recording which deltas it consumed.
	eng := NewEngine(m, interval, opts)
	consumed := make([]bool, len(ds))
	for i, d := range ds {
		before := eng.Stats()
		eng.Process(d)
		after := eng.Stats()
		// A delta is unexplained iff it ended as "unknown" (it may later
		// be consumed retroactively by split combining, which clears the
		// pending fragment — detect that via the unknown counter).
		if after.Unknown == before.Unknown {
			consumed[i] = true
		}
	}
	// Fragments that the engine later combined into a key or noise event
	// were counted as unknown when first seen and stay marked unexplained
	// here; pass 2 may re-derive the same event from them, and the Ti
	// merge below discards such duplicates.
	keys := eng.Keys()

	// Pass 2: cluster leftover deltas by proximity and re-segment.
	type cluster struct {
		idx []int
	}
	var clusters []cluster
	var cur []int
	var lastAt sim.Time
	for i, d := range ds {
		if consumed[i] {
			continue
		}
		if len(cur) > 0 && d.At-lastAt > eng.win.split {
			clusters = append(clusters, cluster{idx: cur})
			cur = nil
		}
		cur = append(cur, i)
		lastAt = d.At
	}
	if len(cur) > 0 {
		clusters = append(clusters, cluster{idx: cur})
	}

	unexplained := 0
	var recovered []InferredKey
	for _, c := range clusters {
		ks, left := segmentCluster(m, ds, c.idx)
		recovered = append(recovered, ks...)
		unexplained += left
	}

	// Merge pass-2 keys, applying the Ti duplication rule against the
	// pass-1 timeline.
	merged := append([]InferredKey(nil), keys...)
	for _, k := range recovered {
		if !violatesTi(merged, k.At, eng.opts.DedupWindow) {
			merged = append(merged, k)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].At < merged[j].At })
	return OfflineResult{Keys: merged, Unexplained: unexplained}
}

func violatesTi(keys []InferredKey, at sim.Time, ti sim.Time) bool {
	for _, k := range keys {
		d := at - k.At
		if d < 0 {
			d = -d
		}
		if d < ti {
			return true
		}
	}
	return false
}

// segmentCluster finds the contiguous segmentation of a delta run that
// explains the most changes: each segment must classify as a key or a
// noise event; leftovers are penalized. Dynamic program over segment end
// positions (clusters are short — a handful of fragments).
func segmentCluster(m *Model, ds []trace.Delta, idx []int) ([]InferredKey, int) {
	n := len(idx)
	if n == 0 {
		return nil, 0
	}
	if n > 16 {
		// Degenerate (e.g. unlearned animation storm): bail out rather
		// than chew O(n^2) on garbage.
		return nil, n
	}

	type verdictAt struct {
		key   rune
		isKey bool
		ok    bool
	}
	// classify[i][j]: verdict for the sum of fragments i..j (inclusive).
	classify := make([][]verdictAt, n)
	for i := 0; i < n; i++ {
		classify[i] = make([]verdictAt, n)
		var sum trace.Vec
		for j := i; j < n; j++ {
			sum = sum.Add(ds[idx[j]].V)
			v := m.ClassifyDenoised(sum)
			classify[i][j] = verdictAt{key: v.R, isKey: v.IsKey, ok: v.IsKey || v.IsNoise}
		}
	}

	// best[i]: (explained fragments, segmentation) for suffix starting i.
	type state struct {
		explained int
		cuts      []int // segment start positions
	}
	best := make([]state, n+1)
	best[n] = state{}
	for i := n - 1; i >= 0; i-- {
		// Option: leave fragment i unexplained.
		best[i] = state{explained: best[i+1].explained, cuts: best[i+1].cuts}
		for j := i; j < n; j++ {
			if !classify[i][j].ok {
				continue
			}
			cand := best[j+1].explained + (j - i + 1)
			if cand > best[i].explained {
				best[i] = state{
					explained: cand,
					cuts:      append([]int{i<<8 | j}, best[j+1].cuts...),
				}
			}
		}
	}

	var keys []InferredKey
	explainedFrags := 0
	for _, cut := range best[0].cuts {
		i, j := cut>>8, cut&0xff
		explainedFrags += j - i + 1
		v := classify[i][j]
		if v.isKey {
			keys = append(keys, InferredKey{At: ds[idx[i]].At, R: v.key})
		}
	}
	return keys, n - explainedFrags
}

// EavesdropTraceOffline runs device recognition and whole-trace
// segmentation (§5.1's offline mode) over a collected trace.
func (a *Attack) EavesdropTraceOffline(tr *trace.Trace) (*Result, error) {
	ds := tr.Deltas()
	m, err := a.Recognize(ds, tr.Interval)
	if err != nil {
		return nil, err
	}
	seg := SegmentTrace(m, ds, tr.Interval, a.Options)
	rs := make([]rune, len(seg.Keys))
	for i, k := range seg.Keys {
		rs[i] = k.R
	}
	return &Result{
		Model: m.Key,
		Keys:  seg.Keys,
		Text:  string(rs),
	}, nil
}
