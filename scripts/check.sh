#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, the
# one-orchestration structural guard, build, unit tests, the full test suite
# under the race detector, and a one-shot compile-and-run smoke of the
# observability-overhead benchmarks.
#
# Usage: scripts/check.sh [package-pattern]   (default ./...)
set -eu
cd "$(dirname "$0")/.."
pkgs="${1:-./...}"

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet $pkgs"
go vet "$pkgs"

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck $pkgs"
    staticcheck "$pkgs"
else
    echo "== staticcheck (skipped: not installed)"
fi

# Each strategy step and each query-lifecycle metric exists exactly once:
# internal/exec orchestrates for every transport (DESIGN.md §2 row 12), so
# outside internal/federation (which defines the steps) and benchmark/ (which
# replays them step by step) every federation orchestration method has one
# non-test call site, and the admission gauge and the query-latency histogram
# are emitted from one. A second call site is a second copy of a strategy.
echo "== one orchestration (structural guard)"
sources() {
    grep -rnE "$1" --include='*.go' --exclude='*_test.go' \
        --exclude-dir=benchmark --exclude-dir=federation --exclude-dir=.bench_build .
}
guard_failed=0
for pat in \
    '\.Materialize\(' '\.EvaluateView\(' '\.EvalLocalBasic\(' \
    '\.NavigateAll\(' '\.EvalNavigated\(' '\.CertifyDegraded\(' \
    'Gauge\("queries_inflight"' 'Histogram\("query_latency_us"'; do
    sites="$(sources "$pat" || true)"
    if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 1 ]; then
        echo "want exactly one call site matching $pat, have:" >&2
        echo "${sites:-  (none)}" >&2
        guard_failed=1
    fi
done
[ "$guard_failed" -eq 0 ] || exit 1

echo "== go build $pkgs"
go build "$pkgs"

# -timeout 120s: a wedged cancellation/deadline test must fail the gate
# with a goroutine dump, not hang it for the default 10 minutes.
echo "== go test $pkgs"
go test -timeout 120s "$pkgs"

echo "== go test -race $pkgs"
go test -race -timeout 120s "$pkgs"

# Invariant 1 across the three transports, and the two tests that read
# server-side bookkeeping written after the response: repeated under the
# race detector, fresh every time.
echo "== cross-transport invariant + post-response bookkeeping (race, x10)"
go test -race -count 10 -timeout 300s \
    -run 'TestAlgorithmsAgreeAcrossTransports|TestUnknownKindCountsError|TestClusterSiteRecorders' \
    ./internal/remote/

echo "== bench smoke (1 iteration)"
go test -run - -bench 'BenchmarkTraceOverhead|BenchmarkProfileOverhead' -benchtime 1x .

# The recovery torture runs inside the package tests above, but a fresh
# -count=1 pass here keeps the crash-recovery gate immune to test caching.
echo "== recovery torture (kill -9, fresh run)"
go test -count 1 -timeout 120s -run 'TestKillNineMidInsert' ./internal/store/wal/

# BENCH_SMOKE=1 additionally runs the hetbench regression smoke: a tiny
# deterministic sim matrix gated against the committed BENCH_smoke.json.
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "== hetbench smoke (vs committed BENCH_smoke.json)"
    scripts/bench_smoke.sh
fi

# BENCH_DURABILITY=1 additionally runs the storage-engine durability
# smoke: it gates on its own invariants (recovery completeness and the
# buffered WAL's write overhead vs the in-memory engine).
if [ "${BENCH_DURABILITY:-0}" = "1" ]; then
    echo "== hetbench durability (self-gating)"
    scripts/bench_durability.sh
fi

# BENCH_OBS=1 additionally runs the observability-overhead smoke: the
# live cluster measured bare and under the scraper + SLO plane, gated on
# the relative wall-clock overhead.
if [ "${BENCH_OBS:-0}" = "1" ]; then
    echo "== hetbench obs (self-gating)"
    scripts/bench_obs.sh
fi

# BENCH_CHAOS=1 additionally runs the partition-tolerance chaos smoke: a
# seeded partition/kill/restart schedule over a durable live cluster,
# gated on zero certain-answer contradictions and bounded anti-entropy
# convergence.
if [ "${BENCH_CHAOS:-0}" = "1" ]; then
    echo "== hetbench chaos (self-gating)"
    scripts/bench_chaos.sh
fi

echo "ok"
