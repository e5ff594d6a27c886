// Command gpuleakrouter fronts a fleet of gpuleakd replicas with
// serve.Router, which routes each request to the replica owning its
// model and fails streams over mid-stream; the command adds the flags,
// the -probe ticker and the drain on SIGINT/SIGTERM: new requests get
// 503, in-flight proxies and streams finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpuleak/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpuleakrouter: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run routes over the -backends fleet until ctx is done, then drains
// through serve.ListenAndServe: it refuses new requests, waits for
// in-flight proxies and streams (bounded by -drain-timeout), closes the
// HTTP side, and returns nil. Probe rounds run at every -probe tick, the
// first one at once.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gpuleakrouter", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (port 0 = ephemeral)")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file once listening")
	backends := fs.String("backends", "", "comma-separated gpuleakd base URLs (required)")
	probe := fs.Duration("probe", 500*time.Millisecond, "health-probe interval")
	downAfter := fs.Int("down-after", 2, "consecutive failed probes before a replica leaves the ring")
	upAfter := fs.Int("up-after", 1, "consecutive healthy probes before a replica (re)joins")
	failovers := fs.Int("failovers", 2, "max alternate replicas tried per request/stream")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		return errors.New("no -backends given")
	}

	rt := serve.NewRouter(urls, *downAfter, *upAfter, *failovers)
	probeCtx, stopProbes := context.WithCancel(ctx)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		tick := time.NewTicker(*probe)
		defer tick.Stop()
		for {
			// A probe never outlives its interval.
			rt.Probe(*probe)
			select {
			case <-probeCtx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	defer func() {
		stopProbes()
		<-probed
	}()
	return serve.ListenAndServe(ctx, *addr, *addrFile, rt, *drainTimeout, func(a net.Addr) {
		log.Printf("listening on http://%s, routing %d backends: %s", a, len(urls), strings.Join(urls, ", "))
	})
}
