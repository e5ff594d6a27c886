package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("model/dev=Device-%d/kb=gboard/app=App%d", i, i%7)
	}
	return out
}

// TestRingDeterministic pins placement stability: two rings built from
// the same members (in different orders) agree on every key, which is
// what lets independent routers route identically.
func TestRingDeterministic(t *testing.T) {
	a, b := New(), New()
	for _, m := range []string{"r1", "r2", "r3"} {
		a.Add(m)
	}
	for _, m := range []string{"r3", "r1", "r2"} {
		b.Add(m)
	}
	for _, k := range keys(500) {
		ao, _ := a.Owner(k)
		bo, _ := b.Owner(k)
		if ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", k, ao, bo)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding a
// member moves keys only onto it, removing a member moves only its own
// keys, and the moved fraction is near 1/n.
func TestRingMinimalMovement(t *testing.T) {
	r := New()
	for i := 0; i < 9; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	ks := keys(4000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k], _ = r.Owner(k)
	}

	r.Add("replica-9")
	moved := 0
	for _, k := range ks {
		after, _ := r.Owner(k)
		if after != before[k] {
			if after != "replica-9" {
				t.Fatalf("key %q moved %q -> %q, not to the new member", k, before[k], after)
			}
			moved++
		}
	}
	// Expected share is 1/10; allow generous slack for hash variance.
	if frac := float64(moved) / float64(len(ks)); frac > 0.2 {
		t.Fatalf("adding 1 of 10 members moved %.1f%% of keys", 100*frac)
	}

	withNew := make(map[string]string, len(ks))
	for _, k := range ks {
		withNew[k], _ = r.Owner(k)
	}
	r.Remove("replica-9")
	for _, k := range ks {
		after, _ := r.Owner(k)
		if withNew[k] != "replica-9" && after != withNew[k] {
			t.Fatalf("key %q not owned by the removed member moved %q -> %q", k, withNew[k], after)
		}
		if after != before[k] {
			t.Fatalf("remove did not restore %q: %q vs original %q", k, after, before[k])
		}
	}
}

// TestRingBalance pins that virtual nodes spread the keyspace within a
// reasonable factor of even.
func TestRingBalance(t *testing.T) {
	r := New()
	n := 8
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	counts := map[string]int{}
	ks := keys(8000)
	for _, k := range ks {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("owner lookup failed on populated ring")
		}
		counts[o]++
	}
	even := float64(len(ks)) / float64(n)
	for m, c := range counts {
		if f := float64(c) / even; f < 0.5 || f > 2 {
			t.Fatalf("member %s holds %d keys (%.2fx even); distribution %v", m, c, f, counts)
		}
	}
}

// TestRingOwners pins the failover list: distinct members, owner first,
// truncated to the ring size.
func TestRingOwners(t *testing.T) {
	r := New()
	if got := r.Owners("k", 2); got != nil {
		t.Fatalf("empty ring Owners = %v", got)
	}
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring reported an owner")
	}
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	for _, k := range keys(100) {
		owners := r.Owners(k, 5)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 5) = %v, want all 3 members", k, owners)
		}
		first, _ := r.Owner(k)
		if owners[0] != first {
			t.Fatalf("Owners[0] %q != Owner %q", owners[0], first)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q: %v", k, o, owners)
			}
			seen[o] = true
		}
	}
}

// TestMembershipThresholds pins the probe state machine: a member joins
// only after upAfter straight successes, leaves after downAfter straight
// failures, and interleaved outcomes reset the counters.
func TestMembershipThresholds(t *testing.T) {
	ms := NewMembership(2, 2)
	ms.Add("r1")
	if got := ms.State("r1"); got != StateDown {
		t.Fatalf("fresh member state %v, want down", got)
	}
	if _, ok := ms.Owner("k"); ok {
		t.Fatal("down member received ownership")
	}

	ms.ReportSuccess("r1")
	if got := ms.State("r1"); got != StateDown {
		t.Fatalf("one success flipped state to %v", got)
	}
	ms.ReportFailure("r1") // resets the success streak
	ms.ReportSuccess("r1")
	ms.ReportSuccess("r1")
	if got := ms.State("r1"); got != StateUp {
		t.Fatalf("two straight successes left state %v", got)
	}
	if o, ok := ms.Owner("k"); !ok || o != "r1" {
		t.Fatalf("Owner = %q/%v after up", o, ok)
	}

	ms.ReportFailure("r1")
	ms.ReportSuccess("r1") // resets the failure streak
	ms.ReportFailure("r1")
	if got := ms.State("r1"); got != StateUp {
		t.Fatalf("interleaved failures flipped state to %v", got)
	}
	ms.ReportFailure("r1")
	if got := ms.State("r1"); got != StateDown {
		t.Fatalf("two straight failures left state %v", got)
	}
	if _, ok := ms.Owner("k"); ok {
		t.Fatal("down member still owns keys")
	}

	// Unknown members are ignored, not invented.
	ms.ReportSuccess("ghost")
	ms.ReportFailure("ghost")
	if got := ms.State("ghost"); got != StateDown {
		t.Fatalf("ghost state %v", got)
	}
}

// TestMembershipDraining pins the drain path: a draining member leaves
// the ring immediately, is reported distinctly from down, and rejoins
// after enough healthy probes (restart finished).
func TestMembershipDraining(t *testing.T) {
	ms := NewMembership(2, 1)
	for _, n := range []string{"r1", "r2"} {
		ms.Add(n)
		ms.ReportSuccess(n)
	}
	if up := ms.Up(); len(up) != 2 {
		t.Fatalf("up set %v, want 2 members", up)
	}

	ms.ReportDraining("r1")
	if got := ms.State("r1"); got != StateDraining {
		t.Fatalf("state %v, want draining", got)
	}
	if up := ms.Up(); len(up) != 1 || up[0] != "r2" {
		t.Fatalf("up set %v after drain, want [r2]", up)
	}
	epoch := ms.Epoch()
	ms.ReportDraining("r1") // idempotent
	if ms.Epoch() != epoch {
		t.Fatal("repeated drain report mutated the ring")
	}
	for _, k := range keys(100) {
		if o, ok := ms.Owner(k); !ok || o != "r2" {
			t.Fatalf("draining member still routed: Owner(%q) = %q/%v", k, o, ok)
		}
	}

	// The drained replica restarts and probes healthy again.
	ms.ReportSuccess("r1")
	if got := ms.State("r1"); got != StateUp {
		t.Fatalf("state %v after recovery, want up", got)
	}
	if up := ms.Up(); len(up) != 2 {
		t.Fatalf("up set %v after recovery", up)
	}

	all := ms.All()
	if len(all) != 2 || all[0].Name != "r1" || all[0].State != StateUp {
		t.Fatalf("All() = %v", all)
	}
	if StateUp.String() != "up" || StateDown.String() != "down" || StateDraining.String() != "draining" {
		t.Fatal("state names drifted")
	}
}
