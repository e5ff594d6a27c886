package cfgood

import "context"

func doCtx(ctx context.Context) error { _ = ctx; return nil }

// Options carries an optional context, resolved by Context below.
type Options struct {
	// Ctx, when non-nil, cancels the run.
	Ctx context.Context
}

// Context resolves the configured context (Background when unset) — the
// documented defaulting-resolver shape.
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Threaded passes the context it holds all the way down.
func Threaded(ctx context.Context) error {
	return doCtx(ctx)
}

// Fetch is the context-free variant.
func Fetch() error { return nil }

// FetchContext is the context-aware variant, used by holders.
func FetchContext(ctx context.Context) error { _ = ctx; return nil }

// HolderThreads calls the context-aware sibling with its own context.
func HolderThreads(ctx context.Context) error {
	return FetchContext(ctx)
}

// NoContextCaller holds no context, so the context-free variant is fine.
func NoContextCaller() error {
	return Fetch()
}
