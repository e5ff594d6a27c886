package ring

import (
	"sort"
	"sync"
)

// State is a member's health as seen by the probe loop.
type State int

const (
	// StateDown members are out of the ring: newly added (never probed
	// healthy) or past the failure threshold.
	StateDown State = iota
	// StateUp members are in the ring and receiving traffic.
	StateUp
	// StateDraining members answered a health probe with a draining
	// signal: they are out of the ring for new work but still finishing
	// in-flight streams, so the router must not kill their connections.
	StateDraining
)

// String names the state for logs and reports.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	default:
		return "down"
	}
}

// Membership tracks replica health from probe outcomes and keeps a
// consistent-hash ring of the up members. It is clock-free: "down" means
// DownAfter consecutive probe failures and "up again" means UpAfter
// consecutive successes, whatever cadence the caller probes at. Safe for
// concurrent use (the router's prober and request paths share it).
type Membership struct {
	mu        sync.Mutex
	ring      *Ring
	states    map[string]*memberHealth
	downAfter int
	upAfter   int
	epoch     uint64
}

// memberHealth is one member's probe bookkeeping.
type memberHealth struct {
	state     State
	failures  int // consecutive, while up
	successes int // consecutive, while down
}

// NewMembership builds an empty membership over a fresh ring. downAfter
// and upAfter are the consecutive-probe thresholds (<=0 selects 2 and 1:
// evict on the second straight failure, readmit on the first success).
func NewMembership(downAfter, upAfter int) *Membership {
	if downAfter <= 0 {
		downAfter = 2
	}
	if upAfter <= 0 {
		upAfter = 1
	}
	return &Membership{
		ring:      New(),
		states:    map[string]*memberHealth{},
		downAfter: downAfter,
		upAfter:   upAfter,
	}
}

// Add registers a member, initially down: it joins the ring only after
// its first UpAfter healthy probes, so a misconfigured backend never
// receives a request. Idempotent.
func (m *Membership) Add(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.states[name]; !ok {
		m.states[name] = &memberHealth{state: StateDown}
	}
}

// ReportSuccess records one healthy probe. A down member that reaches the
// UpAfter threshold rejoins the ring (reclaiming exactly its own arcs — a
// warm handoff the router pairs with model re-replication).
func (m *Membership) ReportSuccess(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.states[name]
	if !ok {
		return
	}
	switch h.state {
	case StateUp:
		h.failures = 0
	case StateDown, StateDraining:
		h.successes++
		if h.successes >= m.upAfter {
			h.state = StateUp
			h.successes, h.failures = 0, 0
			m.ring.Add(name)
			m.epoch++
		}
	}
}

// ReportFailure records one failed probe. An up (or draining) member that
// reaches the DownAfter threshold leaves the ring; its keyspace arcs fall
// to their ring successors.
func (m *Membership) ReportFailure(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.states[name]
	if !ok {
		return
	}
	switch h.state {
	case StateDown:
		h.successes = 0
	case StateUp, StateDraining:
		h.failures++
		if h.failures >= m.downAfter {
			h.state = StateDown
			h.successes, h.failures = 0, 0
			m.ring.Remove(name)
			m.epoch++
		}
	}
}

// Evict forces a member down immediately, skipping the DownAfter
// threshold: the request path observed a hard transport failure (a dead
// TCP connection is not a flaky probe), and waiting for the prober to
// catch up would lose more requests to the corpse.
func (m *Membership) Evict(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.states[name]
	if !ok || h.state == StateDown {
		return
	}
	if h.state == StateUp {
		m.ring.Remove(name)
		m.epoch++
	}
	h.state = StateDown
	h.successes, h.failures = 0, 0
}

// ReportDraining records that a probe found the member up but refusing
// new work (healthz "draining"). It leaves the ring immediately — a
// drain is a deliberate signal, not a flaky probe — but its state stays
// distinct from down so operators can tell the two apart.
func (m *Membership) ReportDraining(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.states[name]
	if !ok || h.state == StateDraining {
		return
	}
	if h.state == StateUp {
		m.ring.Remove(name)
		m.epoch++
	}
	h.state = StateDraining
	h.successes, h.failures = 0, 0
}

// State reports a member's current health.
func (m *Membership) State(name string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.states[name]; ok {
		return h.state
	}
	return StateDown
}

// Epoch counts ring mutations; a changed epoch tells cached placements
// they are stale.
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Owner maps a key to the up member owning it (ok false: no member up).
func (m *Membership) Owner(key string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.Owner(key)
}

// Owners maps a key to its first n distinct up members in ring order.
func (m *Membership) Owners(key string, n int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.Owners(key, n)
}

// Up returns the up member set in sorted order.
func (m *Membership) Up() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.ring.Members()))
	copy(out, m.ring.Members())
	return out
}

// All returns every registered member with its state, sorted by name.
func (m *Membership) All() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.states))
	for name, h := range m.states {
		out = append(out, MemberStatus{Name: name, State: h.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemberStatus pairs a member with its health state.
type MemberStatus struct {
	Name  string
	State State
}
