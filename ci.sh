#!/bin/sh
# ci.sh — the tier-1 gate. Every check a PR must clear, in the order
# cheapest-first so formatting noise fails before the race detector runs.
#
#   1. gofmt      — no unformatted files (analysis testdata excluded:
#                   fixtures deliberately hold un-idiomatic code)
#   2. go vet     — the stock toolchain analyzers
#   3. go build   — everything compiles
#   4. go test    — full test suite under the race detector; the
#                   commands' own tests start the daemons in-process,
#                   kill a replica mid-stream and drain on cancel, and
#                   internal/analysis.TestRepoClean runs the repo's own
#                   invariant checks (see README "Static analysis & CI")
#                   and reconciles gpuvet-waivers.json
#   5. bench      — two-part: a BLOCKING `benchcmp -metrics-only` gate
#                   (fixed seed+quick metrics are deterministic, so any
#                   drift vs BENCH_baseline.json, a changed value or a
#                   baseline metric gone missing, is a behavior change;
#                   no metric is skipped) plus the warn-only wall-clock
#                   comparison (shared runners are too noisy to gate on
#                   timings)
#   6. benchmark  — the benchmark's output pins: bench/ is its own Go
#                   module, so the go vet and go test gates above, and
#                   the checks TestRepoClean runs, never compile it. Vet
#                   and test it, then run every workload for 3 s
#                   (bash bench/run.sh -seconds 3, ~40 s on a 2-core
#                   box); the run exits non-zero unless each
#                   workload's replay checks pass and the output digests
#                   of its first pinned ops match bench/expected.json, so
#                   a refactor that breaks an API the benchmark uses, or
#                   changes a served byte, fails here
#
# Run from the repo root: ./ci.sh
#
# Flags / environment:
#   --quick          skip the race detector (plain `go test`); for fast
#                    local iteration — CI always runs the full gate
#   GOTESTFLAGS      extra flags appended to the test invocation, e.g.
#                    GOTESTFLAGS=-short ./ci.sh
#   GOFLAGS          honored as usual by the go tool itself
set -eu
cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    *)
        echo "usage: ./ci.sh [--quick]" >&2
        exit 2
        ;;
    esac
done

echo "==> gofmt"
# The lockcheck/simtime/floateq fixtures under internal/analysis/testdata
# exist to trip analyzers, not to model style; leave them out on purpose.
unformatted=$(find . -name '*.go' -not -path './internal/analysis/testdata/*' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

if [ "$quick" = 1 ]; then
    echo "==> go test ./... (quick: race detector skipped)"
    # shellcheck disable=SC2086 — GOTESTFLAGS is intentionally word-split
    go test ${GOTESTFLAGS:-} ./...
else
    echo "==> go test -race ./..."
    # shellcheck disable=SC2086
    go test -race ${GOTESTFLAGS:-} ./...
fi

bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT

echo "==> bench metrics gate (blocking)"
# Determinism gate: with the committed seed+quick settings every headline
# metric is a pure function of the code, so any drift from
# BENCH_baseline.json (a changed value, or a baseline metric or experiment
# the new report lacks) is a behavior change that must be reviewed (and
# the baseline regenerated in the same PR if intended). Wall time is excluded
# here; every metric is compared.
go run ./cmd/benchpaper -json > "$bench_dir/bench.json"
go run ./cmd/benchcmp -metrics-only BENCH_baseline.json "$bench_dir/bench.json"

echo "==> bench wall-clock compare (warn-only)"
# Perf trajectory visibility, not a gate: wall-clock thresholds are a
# human decision made against the recorded trajectory, and shared runners
# are too noisy to gate on timings.
if ! go run ./cmd/benchcmp BENCH_baseline.json "$bench_dir/bench.json"; then
    echo "WARNING: bench wall time drifted from BENCH_baseline.json (not a gate)" >&2
fi

echo "==> benchmark output pins (blocking)"
# bench/ is a separate module the gates above skip: compile, vet and test
# it against this tree, then run every workload briefly. bench/run.sh
# exits non-zero when a replay check fails or an output digest drifts from
# bench/expected.json.
(cd bench && go vet ./... && go test ./...)
bash bench/run.sh -seconds 3

echo "CI: all gates passed"
