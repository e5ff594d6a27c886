// Command loadgen drives configurable open-loop load against a gpuleakd
// instance and emits a machine-readable gpuleak-load/v1 JSON report for
// the CI perf trajectory (the serving-side sibling of gpuleak-bench/v1).
//
// Open-loop means requests are launched on a fixed schedule regardless of
// completions — the honest way to measure a backpressuring server: when
// the shard queues fill, the 429s show up in the report instead of the
// generator politely slowing down.
//
//	loadgen -addr http://127.0.0.1:8080 -rate 20 -duration 5s > load.json
//
// With -fleet, the load is streaming sessions instead of one-shot
// requests: each unit of work creates a session, attaches its SSE
// stream, replays the key/retract frames, and checks the closing result
// against ground truth. The report gains sessions/frames/failovers
// counters (same gpuleak-load/v1 schema, additive fields).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuleak/internal/obs"
)

// traceparentHeader mirrors serve.TraceparentHeader: loadgen mints the
// trace at the edge (from the request seed, the same derivation every
// hop uses) so the router and replica spans land under the client's
// trace instead of one minted mid-fleet.
const traceparentHeader = "traceparent"

type eavesdropRequest struct {
	Device       string `json:"device,omitempty"`
	App          string `json:"app,omitempty"`
	Keyboard     string `json:"keyboard,omitempty"`
	Text         string `json:"text"`
	Seed         int64  `json:"seed"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	FaultProfile string `json:"fault_profile,omitempty"`
}

type eavesdropResponse struct {
	Text     string `json:"text"`
	Truth    string `json:"truth"`
	Model    string `json:"model"`
	Degraded bool   `json:"degraded"`
}

// report is the gpuleak-load/v1 schema.
type report struct {
	Schema    string  `json:"schema"`
	Target    string  `json:"target"`
	RateRPS   float64 `json:"rate_rps"`
	DurationS float64 `json:"duration_s"`
	WallS     float64 `json:"wall_s"`

	Sent     int `json:"sent"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"` // 429: shard queue full (backpressure)
	Draining int `json:"draining"` // 503: server shutting down / sampler gave up
	Errors   int `json:"errors"`   // transport errors + other statuses
	Correct  int `json:"correct"`  // inferences matching ground truth
	Degraded int `json:"degraded"` // 200s that recovered from injected faults

	// Fleet-mode (streaming-session) counters; zero in one-shot runs.
	Sessions  int `json:"sessions,omitempty"`  // streams completed end-to-end
	Frames    int `json:"frames,omitempty"`    // key/retract/result frames received
	Failovers int `json:"failovers,omitempty"` // router failover splices observed

	LatencyMS latency        `json:"latency_ms"`
	Statuses  map[string]int `json:"statuses"`
}

type latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

type outcome struct {
	status   int // 0 = transport error
	correct  bool
	degraded bool
	lat      time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	addr := flag.String("addr", "http://127.0.0.1:8080", "gpuleakd base URL")
	rate := flag.Float64("rate", 10, "open-loop request rate (req/s)")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	text := flag.String("text", "hunter2pass", "credential each simulated victim types")
	seed := flag.Int64("seed", 1, "base seed; request i uses seed+i")
	device := flag.String("device", "", "victim device (server default when empty)")
	app := flag.String("app", "", "target app (server default when empty)")
	kb := flag.String("keyboard", "", "keyboard (server default when empty)")
	faults := flag.String("faults", "", "ask the server to inject device faults from this profile (none,mild,moderate,severe,starve)")
	reqTimeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	wait := flag.Duration("healthz-wait", 30*time.Second, "how long to poll /healthz before giving up")
	fleet := flag.Bool("fleet", false, "drive streaming sessions instead of one-shot eavesdrops")
	flag.Parse()

	client := &http.Client{Timeout: *reqTimeout}
	if err := waitHealthy(client, *addr, *wait); err != nil {
		log.Fatal(err)
	}
	var rep *report
	if *fleet {
		rep = runFleetLoad(client, *addr, *rate, *duration, *text, *seed, *device, *app, *kb)
	} else {
		rep = runLoad(client, *addr, *rate, *duration, *text, *seed, *device, *app, *kb, *faults)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("sent=%d ok=%d rejected=%d errors=%d correct=%d degraded=%d p50=%.0fms",
		rep.Sent, rep.OK, rep.Rejected, rep.Errors, rep.Correct, rep.Degraded, rep.LatencyMS.P50)
}

// runLoad fires requests open-loop at the target rate and aggregates the
// outcomes into a report.
func runLoad(client *http.Client, addr string, rate float64, duration time.Duration,
	text string, seed int64, device, app, kb, faults string) *report {

	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	n := int(float64(duration) / float64(interval))
	if n < 1 {
		n = 1
	}

	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < n; i++ {
		if i > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := oneRequest(client, addr, eavesdropRequest{
				Device: device, App: app, Keyboard: kb,
				Text: text, Seed: seed + int64(i),
				FaultProfile: faults,
			})
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &report{
		Schema:    "gpuleak-load/v1",
		Target:    addr,
		RateRPS:   rate,
		DurationS: duration.Seconds(),
		WallS:     wall.Seconds(),
		Statuses:  map[string]int{},
	}
	var lats []float64
	for _, o := range outcomes {
		rep.Sent++
		rep.Statuses[fmt.Sprintf("%d", o.status)]++
		switch {
		case o.status == http.StatusOK:
			rep.OK++
			lats = append(lats, float64(o.lat)/float64(time.Millisecond))
			if o.correct {
				rep.Correct++
			}
			if o.degraded {
				rep.Degraded++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Rejected++
		case o.status == http.StatusServiceUnavailable:
			rep.Draining++
		default:
			rep.Errors++
		}
	}
	rep.LatencyMS = summarize(lats)
	return rep
}

func oneRequest(client *http.Client, addr string, req eavesdropRequest) outcome {
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{}
	}
	hreq, err := http.NewRequest(http.MethodPost, addr+"/v1/eavesdrop", bytes.NewReader(body))
	if err != nil {
		return outcome{}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(traceparentHeader, obs.NewTrace(req.Seed).Traceparent())
	start := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	var er eavesdropResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil && resp.StatusCode == http.StatusOK {
		return outcome{status: -1, lat: time.Since(start)}
	}
	return outcome{
		status:   resp.StatusCode,
		correct:  er.Text != "" && er.Text == er.Truth,
		degraded: er.Degraded,
		lat:      time.Since(start),
	}
}

func summarize(lats []float64) latency {
	if len(lats) == 0 {
		return latency{}
	}
	sort.Float64s(lats)
	var sum float64
	for _, l := range lats {
		sum += l
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	return latency{
		Mean: sum / float64(len(lats)),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
		Max:  lats[len(lats)-1],
	}
}

// waitHealthy polls /healthz until the server answers 200.
func waitHealthy(client *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %v: %v", wait, err)
			}
			return fmt.Errorf("server not healthy after %v", wait)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sessionResponse mirrors the serve/router session-create body.
type sessionResponse struct {
	ID     string `json:"id"`
	Stream string `json:"stream"`
}

// streamEvent mirrors the gpuleak-stream/v1 data payload.
type streamEvent struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	Keys int    `json:"keys"`
}

// sessionOutcome aggregates one streamed session.
type sessionOutcome struct {
	status    int // session-create status (0 = transport error)
	correct   bool
	frames    int
	failovers int
	lat       time.Duration
	err       error
}

// runSession creates one streaming session, attaches its SSE stream, and
// replays it to completion.
func runSession(client *http.Client, addr string, req eavesdropRequest) sessionOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return sessionOutcome{err: err}
	}
	create, err := http.NewRequest(http.MethodPost, addr+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return sessionOutcome{err: err}
	}
	create.Header.Set("Content-Type", "application/json")
	create.Header.Set(traceparentHeader, obs.NewTrace(req.Seed).Traceparent())
	start := time.Now()
	resp, err := client.Do(create)
	if err != nil {
		return sessionOutcome{err: err}
	}
	o := sessionOutcome{status: resp.StatusCode}
	var sr sessionResponse
	decErr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if o.status != http.StatusCreated {
		o.err = fmt.Errorf("session create: status %d", o.status)
		return o
	}
	if decErr != nil {
		o.err = decErr
		return o
	}

	stream, err := client.Get(addr + sr.Stream)
	if err != nil {
		o.err = err
		return o
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("stream attach: status %d", stream.StatusCode)
		return o
	}

	var replay []rune
	event, data := "", []byte(nil)
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": failover"):
			o.failovers++
			continue
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			continue
		case strings.HasPrefix(line, "data: "):
			data = append([]byte(nil), strings.TrimPrefix(line, "data: ")...)
			continue
		case line != "":
			continue
		}
		// Blank line: one frame complete.
		switch event {
		case "key", "retract":
			o.frames++
			var ev streamEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				o.err = fmt.Errorf("decoding %s frame: %w", event, err)
				return o
			}
			if ev.Kind == "key" {
				replay = append(replay, []rune(ev.Key)...)
			} else {
				replay = replay[:ev.Keys]
			}
		case "result":
			o.frames++
			o.lat = time.Since(start)
			var res eavesdropResponse
			if err := json.Unmarshal(data, &res); err != nil {
				o.err = fmt.Errorf("decoding result frame: %w", err)
				return o
			}
			o.correct = res.Text != "" && res.Text == res.Truth
			if string(replay) != res.Text {
				o.err = fmt.Errorf("frame replay %q != result text %q", string(replay), res.Text)
				o.correct = false
			}
			return o
		case "error":
			o.err = fmt.Errorf("in-band stream error: %s", data)
			return o
		}
		event, data = "", nil
	}
	if err := sc.Err(); err != nil {
		o.err = err
		return o
	}
	o.err = fmt.Errorf("stream ended without a result frame")
	return o
}

// runFleetLoad drives open-loop streaming-session load and aggregates
// the gpuleak-load/v1 report with the fleet counters filled in.
func runFleetLoad(client *http.Client, addr string, rate float64, duration time.Duration,
	text string, seed int64, device, app, kb string) *report {

	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	n := int(float64(duration) / float64(interval))
	if n < 1 {
		n = 1
	}

	var (
		mu       sync.Mutex
		outcomes []sessionOutcome
		wg       sync.WaitGroup
	)
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < n; i++ {
		if i > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := runSession(client, addr, eavesdropRequest{
				Device: device, App: app, Keyboard: kb,
				Text: text, Seed: seed + int64(i),
			})
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &report{
		Schema:    "gpuleak-load/v1",
		Target:    addr,
		RateRPS:   rate,
		DurationS: duration.Seconds(),
		WallS:     wall.Seconds(),
		Statuses:  map[string]int{},
	}
	var lats []float64
	for _, o := range outcomes {
		rep.Sent++
		rep.Statuses[fmt.Sprintf("%d", o.status)]++
		rep.Frames += o.frames
		rep.Failovers += o.failovers
		switch {
		case o.err == nil && o.status == http.StatusCreated:
			rep.OK++
			rep.Sessions++
			lats = append(lats, float64(o.lat)/float64(time.Millisecond))
			if o.correct {
				rep.Correct++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Rejected++
		case o.status == http.StatusServiceUnavailable:
			rep.Draining++
		default:
			rep.Errors++
		}
	}
	rep.LatencyMS = summarize(lats)
	return rep
}
