// Package ring is the fleet tier's placement plane: a consistent-hash
// ring that maps model routing keys onto gpuleakd replicas, plus a
// probe-count membership state machine that feeds the ring from health
// checks. Consistent hashing keeps the model working set partitioned —
// every request for one trained model lands on one replica, so the fleet
// holds each model once instead of once per replica — and membership
// changes move only the keys that must move (the departed or arrived
// replica's arc), so a replica failure re-shards its slice of the keyspace
// without cold-starting everyone else's caches.
//
// The package is deliberately clock-free (the gpuvet simtime gate applies
// to it like any internal package): membership decisions count probe
// outcomes, and the prober's cadence is the caller's business
// (cmd/gpuleakrouter owns the wall clock). Everything here is a pure
// function of the inputs, so two routers fed the same probe history agree
// on placement byte-for-byte.
package ring

import (
	"hash/fnv"
	"sort"
)

// virtualNodes is the per-member virtual-node count. 128 keeps the
// keyspace split within a few percent of even for small fleets (pinned by
// the balance test) at a memory cost of one (hash, index) pair each.
const virtualNodes = 128

// Ring is a consistent-hash ring over named members. The zero value is
// an empty ring, as is New's result. Ring is not safe for concurrent
// mutation — wrap it (or use Membership, which does) when updates race
// lookups.
type Ring struct {
	members []string // sorted
	points  []point  // sorted by hash
}

// point is one virtual node: a hash position owned by a member (indexed
// into members, so rebuilds don't duplicate strings).
type point struct {
	h      uint64
	member int
}

// New builds an empty ring.
func New() *Ring { return &Ring{} }

// hashOf positions a string on the ring (64-bit FNV-1a: stable across
// processes and platforms, which is what lets independent routers agree).
func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// mix is the splitmix64 finalizer. FNV over "member#i" strings leaves
// enough structure to skew small rings by ±50%; running the member hash
// and the virtual-node index through splitmix brings the spread within a
// few percent of even at virtualNodes per member (pinned by the balance
// test).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts a member (idempotent). Only the arcs claimed by the new
// member's virtual nodes change owners.
func (r *Ring) Add(member string) {
	i := sort.SearchStrings(r.members, member)
	if i < len(r.members) && r.members[i] == member {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member
	r.rebuild()
}

// Remove deletes a member (idempotent). Its arcs fall to their ring
// successors; everyone else's placement is untouched.
func (r *Ring) Remove(member string) {
	i := sort.SearchStrings(r.members, member)
	if i >= len(r.members) || r.members[i] != member {
		return
	}
	r.members = append(r.members[:i], r.members[i+1:]...)
	r.rebuild()
}

// rebuild recomputes the point list from the member set. Rebuilding from
// scratch (rather than patching) keeps the structure canonical: the ring
// is a pure function of the member set, never of the mutation order.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for mi, m := range r.members {
		mh := hashOf(m)
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, point{mix(mh ^ mix(uint64(v))), mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Hash ties (vanishingly rare) break by member index so the order
		// stays canonical.
		return r.points[i].member < r.points[j].member
	})
}

// Members returns the member set in sorted order (shared backing array:
// callers must not mutate).
func (r *Ring) Members() []string { return r.members }

// Owner maps a key to its owning member: the first virtual node at or
// clockwise after the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hashOf(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member], true
}

// Owners maps a key to its first n distinct members in ring order: the
// owner followed by the failover candidates a router tries when the owner
// is gone. Fewer than n are returned when the ring is smaller than n.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashOf(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, r.members[p.member])
	}
	return out
}
