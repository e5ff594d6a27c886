#!/bin/sh
# ci.sh — the tier-1 gate. Every check a PR must clear, in the order
# cheapest-first so formatting noise fails before the race detector runs.
#
#   1. gofmt      — no unformatted files (analysis testdata excluded:
#                   fixtures deliberately hold un-idiomatic code)
#   2. go vet     — the stock toolchain analyzers
#   3. go build   — everything compiles
#   4. gpuvet     — the repo's own invariants (see README "Static
#                   analysis & CI"); production packages only, any
#                   finding fails and prints in the log, with the
#                   //gpuvet:ignore count reconciled against
#                   gpuvet-waivers.json. No report file is written.
#   5. go test    — full test suite under the race detector
#   6. telemetry  — seeded attackd run with -telemetry; the stream must
#                   parse and be non-empty (traceview validates), and it
#                   must convert to a Chrome trace file
#   7. gpuleakd   — serving smoke: start the daemon on an ephemeral port,
#                   loadgen -smoke checks /healthz and one /v1/eavesdrop
#                   round-trip, then SIGTERM must drain to a clean exit 0
#   8. fleet      — fleet smoke: two gpuleakd replicas behind a
#                   gpuleakrouter, one streaming session end to end with
#                   the owning replica SIGKILLed mid-stream (the router
#                   must re-shard and the replayed stream must still match
#                   the ground truth — and keep the client-minted trace
#                   id), a short -fleet load report (gpuleak-load/v1,
#                   archived when CI_ARTIFACTS is set), a gpuleakstat
#                   -json -check scrape of the surviving fleet gating on
#                   error rate and p99 (the gpuleak-metrics/v1 report is
#                   archived too), then SIGTERM must drain router and
#                   survivor to exit 0
#   9. bench      — two-part: a BLOCKING `benchcmp -metrics-only` gate
#                   (fixed seed+quick metrics are deterministic, so any
#                   drift vs BENCH_baseline.json, a changed value or a
#                   baseline metric gone missing, is a behavior change;
#                   fig25's wall-time metrics are skipped by design) plus
#                   the warn-only wall-clock comparison (shared runners
#                   are too noisy to gate on timings)
#  10. benchmark  — the benchmark's output pins: bench/ is its own Go
#                   module, so the go vet, go test and gpuvet gates above
#                   never compile it. Vet and test it, then run every
#                   workload for 3 s (bash bench/run.sh -seconds 3, ~40 s
#                   on a 2-core box); the run exits non-zero unless each
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
#                    GOTESTFLAGS=-short ./ci.sh  (CI's benchmark-smoke
#                    job uses this to keep the wall clock bounded)
#   GOFLAGS          honored as usual by the go tool itself
set -eu
cd "$(dirname "$0")"

# wait_file FILE [TRIES] — poll (10 Hz) until FILE exists non-empty; the
# daemons publish their kernel-assigned ephemeral ports through -addr-file,
# so nothing in this script hard-codes a port.
wait_file() {
    _wf_tries=${2:-100}
    while [ ! -s "$1" ]; do
        _wf_tries=$((_wf_tries - 1))
        if [ "$_wf_tries" -le 0 ]; then
            echo "timed out waiting for $1" >&2
            return 1
        fi
        sleep 0.1
    done
}

# Every temp dir and background daemon the script creates is recorded in
# tmp_dirs / daemon_pids. One EXIT trap, set once, kills the daemons still
# running and then removes the dirs, so a gate that fails mid-smoke (a
# wait_file timeout, a failed load step) never leaks a daemon or deletes
# its directory underneath it.
tmp_dirs=""
daemon_pids=""
cleanup() {
    for pid in $daemon_pids; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $daemon_pids; do
        wait "$pid" 2>/dev/null || true
    done
    for dir in $tmp_dirs; do
        rm -rf "$dir"
    done
}
trap cleanup EXIT

# reap PID — wait for a recorded daemon and drop it from daemon_pids (a
# reaped PID may be reused, so cleanup must not signal it); returns the
# daemon's exit status.
reap() {
    _reap_keep=""
    for _reap_pid in $daemon_pids; do
        [ "$_reap_pid" = "$1" ] || _reap_keep="$_reap_keep $_reap_pid"
    done
    daemon_pids=$_reap_keep
    wait "$1"
}

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

echo "==> gpuvet ./..."
# Any finding fails and prints here; the waiver ledger reconciles every
# //gpuvet:ignore.
go run ./cmd/gpuvet -waivers gpuvet-waivers.json ./...

if [ "$quick" = 1 ]; then
    echo "==> go test ./... (quick: race detector skipped)"
    # shellcheck disable=SC2086 — GOTESTFLAGS is intentionally word-split
    go test ${GOTESTFLAGS:-} ./...
else
    echo "==> go test -race ./..."
    # shellcheck disable=SC2086
    go test -race ${GOTESTFLAGS:-} ./...
fi

echo "==> telemetry smoke"
# A seeded end-to-end run must emit a parseable, non-empty telemetry
# stream; traceview exits non-zero on an empty or malformed file, and the
# conversion exercises the Perfetto exporter.
telemetry_dir=$(mktemp -d)
tmp_dirs="$tmp_dirs $telemetry_dir"
go run ./cmd/attackd -seed 7 -text hunter2 \
    -telemetry "$telemetry_dir/telemetry.jsonl" >/dev/null 2>&1
go run ./cmd/traceview -telemetry "$telemetry_dir/telemetry.jsonl" \
    -telemetry-chrome "$telemetry_dir/telemetry.trace.json"
test -s "$telemetry_dir/telemetry.trace.json"

echo "==> gpuleakd smoke"
# The serving layer must come up, answer /healthz and one end-to-end
# /v1/eavesdrop (loadgen -smoke verifies the inference matches the ground
# truth), and drain cleanly on SIGTERM. Binaries are prebuilt so the
# background daemon is a real process we can signal and wait on; the
# kernel picks the port (-addr :0) and -addr-file publishes it.
smoke_dir=$(mktemp -d)
tmp_dirs="$tmp_dirs $smoke_dir"
go build -o "$smoke_dir/gpuleakd" ./cmd/gpuleakd
go build -o "$smoke_dir/loadgen" ./cmd/loadgen
go build -o "$smoke_dir/gpuleakrouter" ./cmd/gpuleakrouter
go build -o "$smoke_dir/gpuleakstat" ./cmd/gpuleakstat
"$smoke_dir/gpuleakd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/gpuleakd.addr" \
    >"$smoke_dir/gpuleakd.log" 2>&1 &
gpuleakd_pid=$!
daemon_pids="$daemon_pids $gpuleakd_pid"
wait_file "$smoke_dir/gpuleakd.addr"
gpuleakd_addr=$(cat "$smoke_dir/gpuleakd.addr")
if ! "$smoke_dir/loadgen" -smoke -addr "http://$gpuleakd_addr" -healthz-wait 30s; then
    echo "gpuleakd smoke failed; daemon log:" >&2
    cat "$smoke_dir/gpuleakd.log" >&2
    exit 1
fi
kill -TERM "$gpuleakd_pid"
if ! reap "$gpuleakd_pid"; then
    echo "gpuleakd did not drain cleanly on SIGTERM; daemon log:" >&2
    cat "$smoke_dir/gpuleakd.log" >&2
    exit 1
fi

echo "==> fleet smoke"
# The fleet-scale contracts, end to end with real processes: a consistent-
# hash router over two replicas must serve a routed warmup one-shot, keep
# a streaming session alive across a SIGKILL of the replica that owns it
# (re-sharding onto the survivor and replaying the deterministic stream so
# the client-visible splice is invisible), and the final inference must
# still match the ground truth. Then a short open-loop fleet load records
# the gpuleak-load/v1 trajectory, and SIGTERM must drain the router and
# the surviving replica to clean exits.
fleet_dir=$(mktemp -d)
tmp_dirs="$tmp_dirs $fleet_dir"
for i in 1 2; do
    "$smoke_dir/gpuleakd" -addr 127.0.0.1:0 -addr-file "$fleet_dir/replica$i.addr" \
        >"$fleet_dir/replica$i.log" 2>&1 &
    eval "replica${i}_pid=\$!"
    daemon_pids="$daemon_pids $!"
    wait_file "$fleet_dir/replica$i.addr"
    eval "replica${i}_addr=\$(cat \"\$fleet_dir/replica$i.addr\")"
done
printf 'http://%s %s\nhttp://%s %s\n' \
    "$replica1_addr" "$replica1_pid" "$replica2_addr" "$replica2_pid" \
    >"$fleet_dir/replicas.pids"
"$smoke_dir/gpuleakrouter" -addr 127.0.0.1:0 -addr-file "$fleet_dir/router.addr" \
    -backends "http://$replica1_addr,http://$replica2_addr" -probe 100ms \
    >"$fleet_dir/router.log" 2>&1 &
router_pid=$!
daemon_pids="$daemon_pids $router_pid"
wait_file "$fleet_dir/router.addr"
router_addr=$(cat "$fleet_dir/router.addr")

fleet_logs() {
    echo "router log:" >&2
    cat "$fleet_dir/router.log" >&2
    echo "replica logs:" >&2
    cat "$fleet_dir/replica1.log" "$fleet_dir/replica2.log" >&2
}
if ! "$smoke_dir/loadgen" -fleet-smoke -addr "http://$router_addr" \
    -replica-pids "$fleet_dir/replicas.pids" \
    -killed-file "$fleet_dir/killed.pid" -healthz-wait 30s; then
    echo "fleet smoke failed" >&2
    fleet_logs
    exit 1
fi
killed_pid=$(cat "$fleet_dir/killed.pid")

# Fleet load trajectory over the surviving topology (warn-free by
# construction: the router re-routes everything to the survivor).
"$smoke_dir/loadgen" -fleet -addr "http://$router_addr" -rate 4 -duration 3s \
    -out "$fleet_dir/fleet-report.json"
if [ -n "${CI_ARTIFACTS:-}" ]; then
    mkdir -p "$CI_ARTIFACTS"
    cp "$fleet_dir/fleet-report.json" "$CI_ARTIFACTS/fleet-report.json"
fi

# Observability gate: scrape the router and every replica the ring still
# reports up, merge the RED rollups, and fail the build if the fleet's
# error rate or p99 breaches the thresholds. This is where the failover
# above must show up as metrics (failover counter, evictions) without
# showing up as errors.
if ! "$smoke_dir/gpuleakstat" -router "http://$router_addr" -json -check \
    -out "$fleet_dir/stat-report.json"; then
    echo "gpuleakstat check failed; report:" >&2
    cat "$fleet_dir/stat-report.json" >&2 || true
    fleet_logs
    exit 1
fi
if [ -n "${CI_ARTIFACTS:-}" ]; then
    mkdir -p "$CI_ARTIFACTS"
    cp "$fleet_dir/stat-report.json" "$CI_ARTIFACTS/stat-report.json"
fi

# Drain: router first (it must finish relaying), then the survivor. The
# SIGKILLed replica is reaped without judging its exit status.
kill -TERM "$router_pid"
if ! reap "$router_pid"; then
    echo "gpuleakrouter did not drain cleanly on SIGTERM" >&2
    fleet_logs
    exit 1
fi
fleet_drained=0
for pid in "$replica1_pid" "$replica2_pid"; do
    if [ "$pid" = "$killed_pid" ]; then
        reap "$pid" 2>/dev/null || true
        continue
    fi
    kill -TERM "$pid"
    if reap "$pid"; then
        fleet_drained=$((fleet_drained + 1))
    fi
done
if [ "$fleet_drained" -ne 1 ]; then
    echo "surviving replica did not drain cleanly on SIGTERM" >&2
    fleet_logs
    exit 1
fi

echo "==> bench metrics gate (blocking)"
# Determinism gate: with the committed seed+quick settings every headline
# metric is a pure function of the code, so any drift from
# BENCH_baseline.json (a changed value, or a baseline metric or experiment
# the new report lacks) is a behavior change that must be reviewed (and
# the baseline regenerated in the same PR if intended). Wall time is excluded
# here, as are fig25's metrics — that experiment measures the attacker's
# real classification wall time by design.
go run ./cmd/benchpaper -json > "$smoke_dir/bench.json"
go run ./cmd/benchcmp -metrics-only -skip 'fig25/*' \
    BENCH_baseline.json "$smoke_dir/bench.json"

echo "==> bench wall-clock compare (warn-only)"
# Perf trajectory visibility, not a gate: wall-clock thresholds are a
# human decision made against the recorded trajectory, and shared runners
# are too noisy to gate on timings.
if ! go run ./cmd/benchcmp BENCH_baseline.json "$smoke_dir/bench.json"; then
    echo "WARNING: bench wall time drifted from BENCH_baseline.json (not a gate)" >&2
fi
if [ -n "${CI_ARTIFACTS:-}" ]; then
    cp "$smoke_dir/bench.json" "$CI_ARTIFACTS/bench.json"
fi

echo "==> benchmark output pins (blocking)"
# bench/ is a separate module the gates above skip: compile, vet and test
# it against this tree, then run every workload briefly. bench/run.sh
# exits non-zero when a replay check fails or an output digest drifts from
# bench/expected.json.
(cd bench && go vet ./... && go test ./...)
bash bench/run.sh -seconds 3

echo "CI: all gates passed"
