package cfbad

import "context"

func doCtx(ctx context.Context) error { _ = ctx; return nil }

// Work mints a root context in library code: the Background call
// detaches doCtx from cancellation.
func Work() error {
	ctx := context.Background() // WANT
	return doCtx(ctx)
}

func todo() error {
	return doCtx(context.TODO()) // WANT
}

func undocumentedWrapper() error {
	return doCtx(context.Background()) // WANT
}

// Do is a documented single-statement wrapper that passes Background
// straight into a context-aware callee: it still detaches the callee.
func Do() error { return doCtx(context.Background()) } // WANT

// Fetch is the context-free variant.
func Fetch() error { return nil }

// FetchContext is the context-aware variant.
func FetchContext(ctx context.Context) error { _ = ctx; return nil }

// Holder already holds a context but calls the context-free variant.
func Holder(ctx context.Context) error {
	_ = ctx
	return Fetch() // WANT
}

// HolderBackground already holds a context but mints a fresh root.
func HolderBackground(ctx context.Context) error {
	_ = ctx
	return FetchContext(context.Background()) // WANT
}

// T is a receiver with a context-aware method pair.
type T struct{}

// Run is the context-free variant.
func (t *T) Run() error { return nil }

// RunContext is the context-aware variant.
func (t *T) RunContext(ctx context.Context) error { _ = ctx; return nil }

// MethodHolder drops its context on a method call.
func MethodHolder(ctx context.Context, t *T) error {
	_ = ctx
	return t.Run() // WANT
}
