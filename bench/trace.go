package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one wall-clock interval the benchmark recorded at a layer
// boundary, around a call into the system. Spans of one op share its id.
type span struct {
	name, parent string
	op, tid      int
	start, end   time.Time
}

// tracer keeps a traced run's spans in memory until the run ends. It
// records nothing until started — set-up and warm-up stay out of the
// ledger — and a nil tracer (an untraced run) never records.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// start begins recording; call it before the timed phase starts any op.
func (t *tracer) start() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.t0 = time.Now()
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// chromeEvent is one Chrome trace-event record, the format Perfetto and
// chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chrome converts the recorded spans to complete ("X") events in
// microseconds since recording started, under one process named after
// the workload.
func (t *tracer) chrome(workload string, pid int) []chromeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := []chromeEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": workload}}}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range t.spans {
		args := map[string]any{"op": s.op}
		if s.parent != "" {
			args["parent"] = s.parent
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", PID: pid, TID: s.tid,
			TS: us(s.start.Sub(t.t0)), Dur: us(s.end.Sub(s.start)), Args: args,
		})
	}
	return evs
}

// writeChrome writes trace events as one Chrome trace-event JSON file.
func writeChrome(path string, evs []chromeEvent) error {
	b, err := json.Marshal(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// readChrome loads the events of a file writeChrome wrote.
func readChrome(path string) ([]chromeEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", path, err)
	}
	return ct.TraceEvents, nil
}
