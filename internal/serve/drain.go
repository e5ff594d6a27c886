package serve

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// gate is the admission gate of both Server and Router: it counts the
// requests in flight, refuses new ones once draining begins, and lets a
// drain wait until the last admitted one leaves.
type gate struct {
	// idle is closed once draining has begun and nothing is in flight.
	// Only the channel's closing is guarded; the field never changes.
	idle chan struct{}

	mu       sync.Mutex
	inflight int
	draining bool
}

func newGate() *gate { return &gate{idle: make(chan struct{})} }

// enter admits one request; it fails once draining has begun.
func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// leave retires one admitted request and wakes the drain when the last
// one leaves.
func (g *gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		close(g.idle)
	}
}

// close stops admitting. Only the first call has an effect.
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.draining {
		g.draining = true
		if g.inflight == 0 {
			close(g.idle)
		}
	}
}

// wait blocks until close has been called and every admitted request has
// left, or ctx ends.
func (g *gate) wait(ctx context.Context) error {
	select {
	case <-g.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// state reports the requests in flight and whether draining has begun.
func (g *gate) state() (inflight int, draining bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, g.draining
}

// ListenAndServe listens on addr, writes the bound host:port and a
// newline to addrFile (unless it is empty), hands the bound address to
// listening, and serves h until ctx is done. Then it shuts down in one
// order: h stops admitting and drains its in-flight requests, the HTTP
// server closes, and ListenAndServe waits for Serve to return.
// drainTimeout bounds the drain and the HTTP shutdown together; a failure
// of either is logged, not returned, since the process is stopping anyway.
// Both daemons, gpuleakd over a Server and gpuleakrouter over a Router,
// run through it.
func ListenAndServe(ctx context.Context, addr, addrFile string, h interface {
	http.Handler
	Shutdown(context.Context) error
}, drainTimeout time.Duration, listening func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	listening(ln.Addr())

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutdown: draining in-flight requests (bound %v)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	// Stop admitting first (healthz flips to draining/503), then drain
	// the in-flight requests, then close the HTTP side.
	if err := h.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: http: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}
