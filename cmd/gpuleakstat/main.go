// Command gpuleakstat is the fleet ops console: it scrapes the router
// and every live replica's /metrics, merges the snapshots into one
// fleet view, and renders RED rollups (request rates, error rates,
// latency quantiles from the histogram bucket series), per-shard queue
// depths, session/failover counters, and the micro-batch occupancy
// distribution.
//
//	gpuleakstat -router http://127.0.0.1:8090            # one-shot table
//	gpuleakstat -router ... -watch 2s                    # live console
//	gpuleakstat -router ... -json -out report.json       # gpuleak-metrics/v1
//
// Replicas are discovered from the router's /healthz backend list (only
// backends the ring reports up are scraped — a replica the router has
// evicted must not fail the scrape); -targets adds replicas the router
// does not know about.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"gpuleak/internal/obs"
)

// endpoint maps one RED rollup onto the serving layer's metric
// vocabulary: the success counter, the per-endpoint error counter, and
// (for endpoints that record one) the latency histogram.
type endpoint struct {
	name    string
	success string
	errors  string
	latency string
}

// endpoints lists the RED rollups in render order.
var endpoints = []endpoint{
	{"eavesdrop", "serve.eavesdrops", "serve.errors.eavesdrop", "serve.latency_ms.eavesdrop"},
	{"stream", "serve.sessions.streamed", "serve.errors.stream", "serve.latency_ms.stream"},
	{"session", "serve.sessions.created", "serve.errors.session", ""},
	{"train", "serve.trains", "serve.errors.train", ""},
	{"experiment", "serve.experiments", "serve.errors.experiment", ""},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpuleakstat: ")

	router := flag.String("router", "", "router base URL; replicas are discovered from its /healthz")
	targets := flag.String("targets", "", "comma-separated replica base URLs scraped in addition to discovery")
	jsonOut := flag.Bool("json", false, "emit the gpuleak-metrics/v1 report instead of the table")
	watch := flag.Duration("watch", 0, "re-scrape and re-render at this interval (table mode)")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	flag.Parse()

	var extra []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			extra = append(extra, strings.TrimRight(t, "/"))
		}
	}
	if *router == "" && len(extra) == 0 {
		log.Fatal("nothing to scrape: give -router and/or -targets")
	}
	client := &http.Client{Timeout: *timeout}

	for {
		rep := scrapeFleet(client, *router, extra)
		if *jsonOut {
			if err := writeReport(rep, *out); err != nil {
				log.Fatal(err)
			}
		} else {
			renderTable(os.Stdout, rep)
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// scrapeFleet probes and scrapes every target — the router plus its
// live backends plus the explicit extras — and merges the snapshots. The
// report passes when every target was scraped and answered healthy.
func scrapeFleet(client *http.Client, router string, extra []string) *obs.MetricsReport {
	rep := &obs.MetricsReport{
		Schema: obs.MetricsSchema,
		Fleet:  map[string]float64{},
		RED:    map[string]obs.REDSummary{},
	}
	seen := map[string]bool{}
	add := func(url, role string) {
		if url == "" || seen[url] {
			return
		}
		seen[url] = true
		rep.Targets = append(rep.Targets, scrapeOne(client, url, role))
	}
	if router != "" {
		router = strings.TrimRight(router, "/")
		add(router, "router")
		for _, b := range discoverBackends(client, router) {
			add(b, "replica")
		}
	}
	for _, t := range extra {
		add(t, "replica")
	}
	rep.Pass = len(rep.Targets) > 0
	for _, t := range rep.Targets {
		obs.MergeSnapshots(rep.Fleet, t.Metrics)
		if !t.Healthy || t.Error != "" {
			rep.Pass = false
		}
	}
	for _, ep := range endpoints {
		requests := rep.Fleet[ep.success] + rep.Fleet[ep.errors]
		if requests == 0 {
			continue
		}
		red := obs.REDSummary{
			Requests:  requests,
			Errors:    rep.Fleet[ep.errors],
			ErrorRate: rep.Fleet[ep.errors] / requests,
		}
		if ep.latency != "" {
			if bs, ok := obs.HistogramFromSnapshot(rep.Fleet, ep.latency); ok && bs.Count > 0 {
				red.P50MS = bs.Quantile(0.50)
				red.P90MS = bs.Quantile(0.90)
				red.P99MS = bs.Quantile(0.99)
				red.MaxMS = rep.Fleet[ep.latency+".max"]
			}
		}
		rep.RED[ep.name] = red
	}
	return rep
}

// discoverBackends reads the router's /healthz backend list and returns
// the base URLs the ring currently reports up. A down or draining
// backend is deliberately absent: it cannot be scraped.
func discoverBackends(client *http.Client, router string) []string {
	resp, err := client.Get(router + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var h struct {
		Backends []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"backends"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil {
		return nil
	}
	var up []string
	for _, b := range h.Backends {
		if b.State == "up" {
			up = append(up, strings.TrimRight(b.Name, "/"))
		}
	}
	return up
}

// scrapeOne probes one process: /healthz for liveness, /metrics for the
// flat snapshot.
func scrapeOne(client *http.Client, url, role string) obs.TargetMetrics {
	t := obs.TargetMetrics{URL: url, Role: role}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Error = err.Error()
		return t
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
	resp.Body.Close()
	t.Healthy = resp.StatusCode == http.StatusOK

	m, err := client.Get(url + "/metrics")
	if err != nil {
		t.Error = err.Error()
		return t
	}
	defer m.Body.Close()
	if m.StatusCode != http.StatusOK {
		t.Error = fmt.Sprintf("/metrics: status %d", m.StatusCode)
		return t
	}
	if err := json.NewDecoder(m.Body).Decode(&t.Metrics); err != nil {
		t.Error = fmt.Sprintf("/metrics: %v", err)
	}
	return t
}

func writeReport(rep *obs.MetricsReport, out string) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				log.Fatal(cerr)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// renderTable writes the human console view: targets, RED rollups,
// fleet gauges/counters, and the batch-occupancy distribution.
func renderTable(w io.Writer, rep *obs.MetricsReport) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TARGET\tROLE\tHEALTHY")
	for _, t := range rep.Targets {
		state := "yes"
		if !t.Healthy {
			state = "NO"
		}
		if t.Error != "" {
			state += " (" + t.Error + ")"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", t.URL, t.Role, state)
	}
	fmt.Fprintln(tw)

	fmt.Fprintln(tw, "ENDPOINT\tREQS\tERRS\tERR%\tP50MS\tP90MS\tP99MS\tMAXMS")
	for _, ep := range endpoints {
		red, ok := rep.RED[ep.name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\t%s\t%s\t%s\t%s\n",
			ep.name, red.Requests, red.Errors, 100*red.ErrorRate,
			ms(red.P50MS), ms(red.P90MS), ms(red.P99MS), ms(red.MaxMS))
	}
	fmt.Fprintln(tw)

	fmt.Fprintln(tw, "FLEET\tVALUE")
	for _, k := range fleetLines(rep.Fleet) {
		fmt.Fprintf(tw, "%s\t%g\n", k, rep.Fleet[k])
	}
	if bs, ok := obs.HistogramFromSnapshot(rep.Fleet, "serve.batch.occupancy"); ok && bs.Count > 0 {
		fmt.Fprintln(tw)
		fmt.Fprintln(tw, "BATCH OCCUPANCY\tFLUSHES")
		prev := 0.0
		for i, b := range bs.Bounds {
			if n := bs.Cum[i] - prev; n > 0 {
				fmt.Fprintf(tw, "<= %g\t%g\n", b, n)
			}
			prev = bs.Cum[i]
		}
		if tail := bs.Count - prev; tail > 0 {
			fmt.Fprintf(tw, "> %g\t%g\n", bs.Bounds[len(bs.Bounds)-1], tail)
		}
	}
	tw.Flush() //nolint:errcheck // console output
	fmt.Fprintln(w)
}

// fleetLines picks the point-in-time fleet counters worth a console
// line: queue depths, session state, failovers, evictions, batching.
func fleetLines(fleet map[string]float64) []string {
	interesting := func(k string) bool {
		switch k {
		case "router.backends_up", "router.sessions.resident", "router.sessions.failovers",
			"router.evictions", "router.frames", "router.proxied",
			"serve.sessions.resident", "serve.sessions.streaming",
			"serve.batch.flushes", "serve.batch.coalesced", "serve.inflight":
			return true
		}
		return strings.HasPrefix(k, "serve.shard") && strings.HasSuffix(k, ".queued")
	}
	var keys []string
	for k := range fleet {
		if interesting(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ms renders a latency cell, blank when the endpoint records none.
func ms(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
