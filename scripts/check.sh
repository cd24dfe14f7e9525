#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, the
# one-orchestration, one-report-envelope, one-codec, one-check-path,
# one-replica, one-repair-path, one-experiment-harness, one-simulator,
# work-runs-where-it-is, one-identity-index, said-once, no-strategy-chooser,
# one-probe-per-fetch,
# one-way-to-stand-up-a-site, one-value-in-use, one-home-for-spans,
# no-unused-load-shape, one-matrix-runtime, no-cluster-ops-plane, one-span-clock,
# one-exchange-per-call, one-failure-path-per-call and
# one-metric-catalog structural guards, build, unit tests, the full test suite under the race detector, the benchmark
# module's vet and tests, a one-shot compile-and-run smoke of the overhead and
# allocation benchmarks,
# and a short fuzz budget for every decoder that reads bytes off a socket or
# disk and every grammar a command line feeds.
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
# non-test call site, and the query-latency histogram is emitted from one. A
# second call site is a second copy of a strategy.
echo "== one orchestration, one report envelope (structural guards)"
sources() {
    grep -rnE "$1" --include='*.go' --exclude='*_test.go' \
        --exclude-dir=benchmark --exclude-dir=federation --exclude-dir=.bench_build .
}
guard_failed=0
want_one() { # $1 = the pattern, $2 = the lines matching it
    if [ "$(printf '%s\n' "$2" | grep -c .)" -ne 1 ]; then
        echo "want exactly one site matching $1, have:" >&2
        echo "${2:-  (none)}" >&2
        guard_failed=1
    fi
}
for pat in \
    '\.Materialize\(' '\.EvaluateView\(' '\.EvalLocalBasic\(' \
    '\.NavigateAll\(' '\.EvalNavigated\(' '\.CertifyDegraded\(' \
    'Histogram\("query_latency_us"'; do
    want_one "$pat" "$(sources "$pat" || true)"
done
# A benchmark report exists exactly once: one envelope type owns the JSON
# form, and the topics' canonical parameters live in internal/bench/topics.go,
# not in per-topic scripts.
for pat in 'func \([^)]*\) WriteFile\(' 'json\.MarshalIndent\('; do
    want_one "$pat" "$(grep -nE "$pat" internal/bench/*.go | grep -v '_test\.go:' || true)"
done
if ls scripts/bench_*.sh >/dev/null 2>&1; then
    echo "scripts/bench_*.sh is back; topics belong in internal/bench/topics.go:" >&2
    ls scripts/bench_*.sh >&2
    guard_failed=1
fi
# One wire codec: gob and the approximate per-decode limit reader it needed
# are gone (internal/remote/codec.go and frame.go replace them); neither
# comes back, in tests or otherwise.
if grep -rnE '"encoding/gob"|frameLimitReader' --include='*.go' --exclude-dir=.bench_build .; then
    echo "encoding/gob or frameLimitReader is back; the wire codec is internal/remote/codec.go" >&2
    guard_failed=1
fi
# One check path, one mapping look-up, one declaration per hetserve option:
# the cross-query check batcher, the site lookup cache, hetbench's serving
# dimension and hetserve's option-restating structs are gone (EXPERIMENTS.md
# E22); none comes back, in tests or otherwise.
if grep -rnE 'BatchConfig|kindCheckBatch|LookupCache|ServingSpec|siteOpts|coordOpts' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "a deleted serving fork is back (see EXPERIMENTS.md E22)" >&2
    guard_failed=1
fi
# One mapping-table replica (antientropy.Replica, DESIGN.md section 13):
# Replica.Apply is the one place a binding is logged, bound and folded into
# the digest, so outside the package that defines the log each has one
# non-test site; the digest hook, the closure struct, the tracker and the
# per-owner copies of the rule and the protocol it replaced stay gone, as does
# the index option. internal/remote carries the replica's messages and holds
# no replica logic of its own.
if grep -rnE 'HookEngine|aeReplica|applyBindLocked|UseIndexes|EnableIndexes|Tracker\b' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "a deleted copy of the replica rule (or the index option) is back" >&2
    guard_failed=1
fi
if grep -nE '^type (replica|tally) |^func \([a-z]+ \*(replica|Server|Coordinator)\) (exchange|round|syncPeer|handleRepair|handleBind)\(' \
    internal/remote/*.go; then
    echo "replica logic is back in internal/remote; it belongs to antientropy.Replica" >&2
    guard_failed=1
fi
want_one 'Replica.observe(' "$(grep -nE '\.observe\(' internal/antientropy/*.go | grep -v '_test\.go:' || true)"
want_one '.LogBind(' "$(grep -rnE '\.LogBind\(' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build \
    --exclude-dir=store . | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
# One repair path (DESIGN.md section 13, EXPERIMENTS.md E23): a replica that
# missed bindings converges through its digest exchange and nothing else. The
# pending-delta queue, the log-replay rebuild, the per-peer maintenance locks
# and the log's replay API stay gone, in tests or otherwise; outside tests a
# digest and a repair are each sent from one place (Replica.exchange) and a
# bind delta from one (Replica.Push).
if grep -rnE 'queueResync|replayResync|pendingDelta|rebuildFrom|peerLock|ResyncStates|ReplayBinds|AppendBind|replica_resync|replica_rebuild|replica_needs_rebuild' \
    --include='*.go' --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "a deleted replica-recovery procedure is back (see EXPERIMENTS.md E23)" >&2
    guard_failed=1
fi
for pat in 'Kind:[[:space:]]*KindDigest\>' 'Kind:[[:space:]]*KindRepair\>' 'Kind:[[:space:]]*KindBind\>'; do
    want_one "$pat" "$(sources "$pat" || true)"
done
# One experiment harness: the paper's Figures 9-11 study is hetbench's figures
# topic (internal/bench/figures.go). The second harness, its CLI and its CSV
# stay gone, and outside tests a benchmark draws a Table 2 federation in one
# place (drawTable2, which is also where extents are scaled).
for gone in internal/sim cmd/hetsim experiments.csv; do
    if [ -e "$gone" ]; then
        echo "$gone is back; the experiment harness is hetbench run -topic figures" >&2
        guard_failed=1
    fi
done
if grep -rnE 'sim\.(Figure|Experiment|PlannerAccuracy)' --include='*.go' --exclude-dir=.bench_build .; then
    echo "a caller of the deleted sim package is back" >&2
    guard_failed=1
fi
# One simulator: fabric.Sim is the discrete-event kernel itself (EXPERIMENTS.md
# E53). The separate kernel package, and any import of it, stay gone.
if [ -e internal/des ] || grep -rn '"github.com/hetfed/hetfed/internal/des"' --include='*.go' --exclude-dir=.bench_build .; then
    echo "internal/des is back; the simulator is fabric.Sim (DESIGN.md section 2, row 9)" >&2
    guard_failed=1
fi
want_one 'workload\.Generate\(' "$(grep -rn 'workload\.Generate(' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=examples --exclude-dir=.bench_build . || true)"
# Work runs where it is (DESIGN.md sections 8 and 9, EXPERIMENTS.md E25): a
# server and a coordinator each build one fabric.Real for their life, never
# inside the per-request or per-query function; internal/remote parses a query
# text in one place, the bound-plan table both of them use; and the real
# runtime starts no goroutine for a root task and hands a Fork no leg through
# forkImpl.
for f in internal/remote/server.go internal/remote/coordinator.go; do
    want_one "fabric.NewReal( in $f" "$(grep -n 'fabric\.NewReal(' "$f" || true)"
done
if sed -n '/^func .*runReal(/,/^}/p; /^func .*QueryContext(/,/^}/p' \
    internal/remote/server.go internal/remote/coordinator.go | grep -n 'fabric\.NewReal('; then
    echo "a fabric.Real is built per served request or per query again" >&2
    guard_failed=1
fi
want_one 'query.Parse( under internal/remote' \
    "$(grep -n 'query\.Parse(' internal/remote/*.go | grep -v '_test\.go:' || true)"
if grep -nE 'go root\.exec|forkImpl\(' internal/fabric/real.go; then
    echo "the real runtime spawns its root task or goes through forkImpl again" >&2
    guard_failed=1
fi
# A Go task or a Fork's other legs run on parked workers (EXPERIMENTS.md E45):
# the worker start is the real runtime's one go statement, so a goroutine per
# leg, whose stack grows again under every site call, cannot come back.
want_one 'a go statement in internal/fabric/real.go' \
    "$(grep -nE '^[[:space:]]*go [^ ]' internal/fabric/real.go || true)"
# One identity index (DESIGN.md section 2 rows 5 and 11, EXPERIMENTS.md E26): a
# mapping table keeps one LOid index per site and numbers its entities, and
# everything that resolves identities per object takes the site's index once
# before its loop. The struct-keyed map and a per-object GOidOf in the
# federation's paths stay gone (Replica.Apply's conflict check is the
# remaining non-test caller), and the outerjoin's merge is defined once (a
# list plan's, by slot, since EXPERIMENTS.md E52).
if grep -rnE 'byLocal|map\[(gmap\.)?Location\]' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "a (site, LOid)-keyed map is back; identity is gmap.Table.At(site)" >&2
    guard_failed=1
fi
if grep -nE '\.GOidOf\(' internal/federation/*.go | grep -v '_test\.go:'; then
    echo "internal/federation resolves an identity per object again; take Table.At(site) before the loop" >&2
    guard_failed=1
fi
want_one 'func (lp *listPlan) merge' \
    "$(grep -rn 'func (lp \*listPlan) merge' --include='*.go' --exclude-dir=.bench_build . || true)"
# Phase I at the global site works by entity number (EXPERIMENTS.md E36):
# certification groups rows by the range table's numbers, so no GOid-keyed
# map of entities comes back to internal/federation; and only internal/remote's
# decoder hands Materialize an Owned list, whose objects the view adopts.
if grep -nE 'map\[object\.GOid\]\*entity' internal/federation/*.go; then
    echo "a GOid-keyed entity map is back in internal/federation; certification groups by entity number" >&2
    guard_failed=1
fi
owned=$(grep -rnE 'Owned[[:space:]]*(=|:)[[:space:]]*true' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=.bench_build . || true)
want_one 'Owned set true outside tests' "$owned"
case "$owned" in
./internal/remote/codec.go:*) ;;
*) echo "Owned is set true outside internal/remote's decoder: $owned" >&2; guard_failed=1 ;;
esac
# Said once (DESIGN.md section 6, EXPERIMENTS.md E27): the observability stack
# has one definition per health rule, renderer and exposition. The
# healthy-state rule is spelled in obs.Healthy and nowhere else; the second
# objective language, the flat event model, the expvar exposition and
# hetserve's second listing-row builder stay gone, in tests or otherwise; and
# the registry is served, never fetched, so internal/metrics reads no body.
want_one 'HasPrefix(…, "ok(")' "$(grep -rnE 'HasPrefix\([a-z.]+, "ok\("' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build . || true)"
if grep -rnE 'expvar|EvaluateSLO|bench\.SLO|trace\.Event\b|profileSummaries' \
    --include='*.go' --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "a second copy the observability stack deleted is back (see EXPERIMENTS.md E27)" >&2
    guard_failed=1
fi
if grep -rn 'io\.LimitReader' --include='*.go' --exclude='*_test.go' internal/metrics; then
    echo "internal/metrics reads an HTTP body itself; a registry is served by internal/obs" >&2
    guard_failed=1
fi
# No cluster ops plane (EXPERIMENTS.md E40): a process serves its own surface
# and nothing reads another's, so the scraper and rollup, the SLO alert
# engine, hetserve's flag for them and the scrape hook stay gone, in tests or
# otherwise.
for gone in internal/obs/agg internal/obs/slo; do
    if [ -e "$gone" ]; then
        echo "$gone is back; nothing reads another process's surface (see EXPERIMENTS.md E40)" >&2
        guard_failed=1
    fi
done
if grep -rnE 'cluster-scrape|SetOnScrape' --include='*.go' --exclude-dir=.bench_build .; then
    echo "the cluster scraper is back (see EXPERIMENTS.md E40)" >&2
    guard_failed=1
fi
# hetbench is one verb over one matrix (EXPERIMENTS.md E41): run gates each
# topic by reproducing its committed report (Report.Reproduces), so the SLO rule grammar and
# its judge, the check and slo subcommands and the smoke and adaptive topics'
# reports stay gone, in tests or otherwise.
if grep -rnE 'ParseRules|bench\.Judge|sloCmd|checkCmd|BENCH_smoke|BENCH_adaptive' \
    --include='*.go' --include='*.yml' --include='*.sh' --exclude-dir=.bench_build . | grep -v '^\./scripts/check\.sh:'; then
    echo "a second way to judge a matrix report is back; hetbench run -topic strategies is the one (see EXPERIMENTS.md E41)" >&2
    guard_failed=1
fi
for gone in BENCH_smoke.json BENCH_adaptive.json internal/bench/slo.go; do
    if [ -e "$gone" ]; then
        echo "$gone is back; strategies is the one DES matrix (see EXPERIMENTS.md E41)" >&2
        guard_failed=1
    fi
done
# A committed report has one gate (EXPERIMENTS.md E54): a run reproduces it
# in every key but "version", so the tolerance diff beside it (bench.Check,
# its spec comparison and latency slack) and the per-topic Baseline flag
# stay gone, in tests or otherwise.
if grep -rnE 'bench\.Check\b|^func Check\(|\bspecViolations\b|\blatencySlackMicros\b' \
    --include='*.go' --include='*.yml' --include='*.sh' --exclude-dir=.bench_build . | grep -v '^\./scripts/check\.sh:'; then
    echo "a tolerance gate on a committed report is back; a run reproduces it (see EXPERIMENTS.md E54)" >&2
    guard_failed=1
fi
if grep -nE '^[[:space:]]+Baseline[[:space:]]|Baseline:' internal/bench/topics.go; then
    echo "Topic has a Baseline flag again; every topic is gated by reproducing its report (see EXPERIMENTS.md E54)" >&2
    guard_failed=1
fi
# hetbench keeps only its simulator runs (EXPERIMENTS.md E43): the WAL's
# write and recovery cost is benchmark/'s wal.* and store.insert_us, and the
# live chaos rig is internal/antientropy's TestChaosPartitionKillRestart, so
# the durability topic, the chaos topic's runner and both reports stay gone,
# in tests or otherwise.
if grep -rnE 'RunDurability|DurabilitySpec|bench\.RunChaos|BENCH_durability\.json|BENCH_chaos\.json' \
    --include='*.go' --include='*.yml' --include='*.sh' --exclude-dir=.bench_build . | grep -v '^\./scripts/check\.sh:'; then
    echo "a wall-clock hetbench topic is back; hetbench runs the simulator only (see EXPERIMENTS.md E43)" >&2
    guard_failed=1
fi
for gone in BENCH_durability.json BENCH_chaos.json internal/bench/durability.go internal/bench/chaos.go; do
    if [ -e "$gone" ]; then
        echo "$gone is back; hetbench runs the simulator only (see EXPERIMENTS.md E43)" >&2
        guard_failed=1
    fi
done
# A span keeps one clock and hetbench run three flags (DESIGN.md section 6,
# EXPERIMENTS.md E48): a span's Start and End are virtual under the DES and
# trace.Now elsewhere, so the second clock's fields, duration and profile
# latency stay gone; and run takes a registered topic, so the ad-hoc matrix
# flags and -check stay gone, in tests or otherwise.
if grep -rnwE 'VStart|VEnd|VDurationMicros|VMicros' --include='*.go' --exclude-dir=.bench_build .; then
    echo "a second span clock is back; a span keeps one Start/End pair (see EXPERIMENTS.md E48)" >&2
    guard_failed=1
fi
if grep -rnE '[A-Z][A-Za-z0-9]*\(([^,()"]+,[[:space:]]*)?"(strategies|workloads|faults|queries|zipf|variants|scale|seed|check)"' cmd/hetbench; then
    echo "a hetbench matrix flag is back; run takes -topic, -out and -q (see EXPERIMENTS.md E48)" >&2
    guard_failed=1
fi
# A site call is one exchange (DESIGN.md section 7, EXPERIMENTS.md E44): a
# failed call is not sent again, so the client's retry loop, its backoff
# constants, its retry counter, CallConfig's Attempts field and the entry
# points beside client.call stay gone outside benchmark/, in tests or
# otherwise.
if grep -rnE 'call_retries_total|backoffBase|backoffMax|\.callCtx\(|\.callTimeout\(' --include='*.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "a call retry or a second call entry point is back; a site call is one exchange (see EXPERIMENTS.md E44)" >&2
    guard_failed=1
fi
if sed -n '/^type CallConfig struct/,/^}/p' internal/remote/client.go | grep -nE '^[[:space:]]+Attempts[[:space:]]'; then
    echo "CallConfig has an Attempts field again; a site call is one exchange (see EXPERIMENTS.md E44)" >&2
    guard_failed=1
fi
# The strategy is one the caller names (DESIGN.md section 11, EXPERIMENTS.md
# E46): no cost-based chooser could beat always-BL by ROADMAP item 14(b)'s
# bar, so the planner package, the adaptive example, exec's Adaptive policy
# with its Selector seam and choice counter, and the figures topic's planner
# sweep stay gone, in tests or otherwise; and the message-size model is
# federation's, defined once.
for gone in internal/planner internal/adapt examples/adaptive; do
    if [ -e "$gone" ]; then
        echo "$gone is back; the strategy is one the caller names (see EXPERIMENTS.md E46)" >&2
        guard_failed=1
    fi
done
if grep -rnwE 'Adaptive|Selector|adaptive_choice_total' --include='*.go' --exclude-dir=.bench_build . ||
    grep -nE 'name: "planner"' internal/bench/*.go; then
    echo "a strategy chooser is back; the strategy is one the caller names (see EXPERIMENTS.md E46)" >&2
    guard_failed=1
fi
want_one 'requestOverhead = under internal/' \
    "$(grep -rniE 'requestOverhead[[:space:]]*=' --include='*.go' internal || true)"
# One probe per fetch (DESIGN.md section 4 invariant 15, EXPERIMENTS.md E29): a
# site's per-query buffer pool is a bitset over the store's positions. No
# second LOid map stands beside the store's on the site path, the pool's
# pre-sized constructor stays gone, and a database keeps one LOid-keyed map,
# which its extents answer from.
if grep -nE 'map\[object\.LOid\]' internal/eval/*.go internal/federation/site.go | grep -v '_test\.go:'; then
    echo "a second LOid map is back on the site path; the buffer pool is eval.Cached's bitset" >&2
    guard_failed=1
fi
if grep -rn 'NewCachedSize' --include='*.go' --exclude-dir=.bench_build .; then
    echo "NewCachedSize is back; a pool sizes its bitset from the store" >&2
    guard_failed=1
fi
want_one 'an LOid-keyed map field in internal/store/store.go' \
    "$(grep -nE '^[[:space:]]+[a-zA-Z_]+[[:space:]]+map\[object\.LOid\]' internal/store/store.go || true)"
# One way to stand up a site (DESIGN.md section 10, EXPERIMENTS.md E30): outside
# the benchmark module, a server is built in one place (remote.StartSite), peer
# maps are wired only inside internal/remote (remote.Cluster), and a durable
# site is recovered and seeded in StartSite alone. hetql's in-process path
# opens a WAL without serving it.
want_one 'NewServer( outside tests' "$(grep -rn 'NewServer(' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build . | grep -v 'func NewServer(' || true)"
if grep -rn '\.SetPeers(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
    --exclude-dir=.bench_build --exclude-dir=remote .; then
    echo "peer maps are wired outside internal/remote; start the cluster with remote.StartCluster" >&2
    guard_failed=1
fi
want_one 'a non-test file opening a served WAL (wal.Open( then .Import()' \
    "$(grep -rl 'wal\.Open(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
        --exclude-dir=.bench_build . | grep -vE '^\./cmd/hetql/main\.go$' |
        xargs -r grep -l '\.Import(' || true)"
# One metric catalog: every series non-test code emits has a row in the table
# of DESIGN.md section 6, and every series row there (| `name{…}` | C/G/H |)
# has an emitter.
catalog="$(sed -n '/^## 6\. /,/^## 7\. /p' DESIGN.md)"
emitted="$(grep -rhoE '[.](Counter|Histogram|Gauge)\("[a-z_]+"' --include='*.go' \
    --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build . |
    sed -E 's/.*"([a-z_]+)"/\1/' | sort -u)"
for name in $emitted; do
    if ! printf '%s\n' "$catalog" | grep -q "^| \`$name[\`{]"; then
        echo "metric $name is emitted but has no row in DESIGN.md section 6" >&2
        guard_failed=1
    fi
done
for name in $(printf '%s\n' "$catalog" | grep -oE '^\| `[a-z_]+\{[^`]*\}`[^|]*\| [CGH] \|' |
    sed -E 's/^\| `([a-z_]+).*/\1/' | sort -u); do
    if ! printf '%s\n' "$emitted" | grep -qx "$name"; then
        echo "metric $name has a row in DESIGN.md section 6 but nothing emits it" >&2
        guard_failed=1
    fi
done
# One value in use is the code's own (EXPERIMENTS.md E32): every histogram has
# the one bucket layout, so a snapshot carries no bounds of its own; a query's
# budget is its caller's context, so no engine, runner, coordinator or
# benchmark matrix carries a deadline; and the settings that had one value in
# use (the repair cadence's struct, the no-op engine, the gate's tolerance,
# the recorder's ring size) stay constants, in tests or otherwise.
if grep -rnE 'DefaultBuckets|AntiEntropyConfig|store\.Mem\b|^type Mem struct|ParseTolerance|DefaultRecorderSize' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "a setting with one value in use is back (see EXPERIMENTS.md E32)" >&2
    guard_failed=1
fi
for decl in 'HistogramSnapshot:internal/metrics/metrics.go:Bounds' 'Config:internal/exec/exec.go:Deadline' \
    'Runner:internal/exec/run.go:Deadline' 'Coordinator:internal/remote/coordinator.go:Deadline' \
    'MatrixSpec:internal/bench/bench.go:Deadline'; do
    typ=${decl%%:*} rest=${decl#*:}
    file=${rest%%:*} field=${rest#*:}
    if sed -n "/^type $typ struct/,/^}/p" "$file" | grep -nE "^[[:space:]]+$field[[:space:]]"; then
        echo "$typ in $file has a $field field again (see EXPERIMENTS.md E32)" >&2
        guard_failed=1
    fi
done
# A finished query's spans have one home (EXPERIMENTS.md E33): a tracer holds
# work in flight, and each query and each served request takes its tree out
# once, into the profile every trace view reads. The per-request copies of the
# whole span store, the renderer beside the profile and the second runtime
# interface stay gone, in tests or otherwise; outside tests the hand-off has
# one site in internal/exec and one in internal/remote; and only the benchmark
# module caps a tracer.
if grep -rnE 'QuerySpans|RenderLastQuery|ContextRuntime' --include='*.go' --exclude-dir=.bench_build .; then
    echo "a second home for a finished query's spans is back (see EXPERIMENTS.md E33)" >&2
    guard_failed=1
fi
for dir in internal/exec internal/remote; do
    want_one ".Take( in $dir" "$(grep -n '\.Take(' "$dir"/*.go | grep -v '_test\.go:' || true)"
done
if grep -rn 'SetLimit(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
    --exclude-dir=.bench_build . | grep -v 'func (t \*Tracer) SetLimit('; then
    echo "a tracer is capped outside benchmark/; Take keeps it to the work in flight" >&2
    guard_failed=1
fi
# No load shape nothing turns on (EXPERIMENTS.md E34): a coordinator admits
# every query and the benchmark drives closed loops only, so the admission
# gate, its shed errors, the open-loop driver and its arrival schedule stay
# gone outside benchmark/, in tests or otherwise.
if grep -rnE 'MaxConcurrent|NewGate|ErrShed|RateQPS|RunOpen|Arrivals\(' --include='*.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "an admission gate or an open-loop driver is back (see EXPERIMENTS.md E34)" >&2
    guard_failed=1
fi
# The closed-loop driver nothing calls and hetql's link to a surface that
# never serves its profiles stay gone, in tests or otherwise (EXPERIMENTS.md
# E42).
if grep -rnwE 'RunClosed|traceURL' --include='*.go' --exclude-dir=benchmark \
    --exclude-dir=.bench_build .; then
    echo "bench.RunClosed or hetql's traceURL is back (see EXPERIMENTS.md E42)" >&2
    guard_failed=1
fi
# One runtime for the matrix (EXPERIMENTS.md E35): every hetbench matrix cell
# runs on the discrete-event fabric, and wall-clock speed over TCP is
# benchmark/'s, so the live runtime, its runtimes dimension and the seed
# suffix it kept stay gone outside benchmark/, in tests or otherwise.
if grep -rnwE 'Runtimes|runLiveCell|seedKeySuffix|"runtimes"' --include='*.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build .; then
    echo "a live matrix runtime is back; hetbench's matrix runs on the DES alone (see EXPERIMENTS.md E35)" >&2
    guard_failed=1
fi
# A site's steps are exec's on every transport (EXPERIMENTS.md E38): a served
# request's Figure 8 steps are the spans exec.SiteFlow opens under the serve
# span, and the serve spans, like the coordinator's rpc spans, carry no phase
# letters. The server's phase table stays gone, in tests or otherwise, and
# outside tests internal/remote tags no span with phases.
if grep -rnw 'reqPhases' --include='*.go' --exclude-dir=.bench_build .; then
    echo "the server's phase table is back; a site's steps are exec.SiteFlow's (see EXPERIMENTS.md E38)" >&2
    guard_failed=1
fi
if grep -n 'WithPhases(' internal/remote/*.go | grep -v '_test\.go:'; then
    echo "internal/remote tags phases; only exec's steps carry them (see EXPERIMENTS.md E38)" >&2
    guard_failed=1
fi
# A retrieve list names its class and attributes once (EXPERIMENTS.md E39):
# its objects travel as masked records, written in internal/remote's codec
# alone, and the named record written through a mask stays gone, in tests or
# otherwise.
if grep -rnw 'AppendProjected' --include='*.go' --exclude-dir=.bench_build .; then
    echo "AppendProjected is back; a retrieve list ships masked records (see EXPERIMENTS.md E39)" >&2
    guard_failed=1
fi
masked=$(grep -rn 'AppendMasked(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . |
    grep -v 'func AppendMasked(' || true)
want_one 'AppendMasked( outside tests' "$masked"
case "$masked" in
./internal/remote/codec.go:*) ;;
*) echo "AppendMasked is called outside internal/remote's codec: $masked" >&2; guard_failed=1 ;;
esac
# A site call has one failure path (EXPERIMENTS.md E49): a failed call is not
# sent again, and the next call to that site dials it afresh. The circuit
# breaker, its setting and cooldown, both of its state accessors and its three
# series stay gone, in tests or otherwise.
if grep -rnE 'ErrCircuitOpen|BreakerThreshold|BreakerStates|PeerBreakers|breakerCooldown|breaker_[a-z]+' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "the circuit breaker is back; a failed site call fails alone (see EXPERIMENTS.md E49)" >&2
    guard_failed=1
fi
# Objects share their class's layout (EXPERIMENTS.md E52): an object is a run
# of bare values read by slot, so the name walks over per-object entries —
# the Projection cursor, Slab.Reserve's room for named entries, Object.Rewrite
# — stay gone, in tests or otherwise.
if grep -rnE '\bProjection\b|\.Projected\(|\.Reserve\(|func \(s \*Slab\) Reserve|\.Rewrite\(|func \(o \*Object\) Rewrite' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "a name walk over per-object entries is back; objects are read by slot (see EXPERIMENTS.md E52)" >&2
    guard_failed=1
fi
# A Value is three words (EXPERIMENTS.md E51): its data pointer is built and
# read in one file of internal/object, and no other non-test file imports
# "unsafe".
unsafe_files=$(grep -rl '"unsafe"' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . || true)
want_one '"unsafe" outside tests' "$unsafe_files"
case "$unsafe_files" in
./internal/object/object.go) ;;
*) echo "a non-test file other than internal/object/object.go imports unsafe: $unsafe_files" >&2; guard_failed=1 ;;
esac
[ "$guard_failed" -eq 0 ] || exit 1

# The figure ROADMAP's LOC numbers use, so the next issue quotes it instead
# of recounting, and ROADMAP item 11's gate on it: a change that grows the
# tree past the ceiling deletes as much as it adds first.
loc_ceiling=19246
loc="$(find . -name '*.go' -not -name '*_test.go' \
    -not -path './benchmark/*' -not -path './.bench_build/*' | xargs wc -l | tail -n 1 | awk '{print $1}')"
echo "== non-test Go lines: $loc (ceiling $loc_ceiling)"
if [ "$loc" -gt "$loc_ceiling" ]; then
    echo "non-test Go lines $loc exceed the ceiling $loc_ceiling (ROADMAP item 11)" >&2
    exit 1
fi

echo "== go build $pkgs"
go build "$pkgs"

# -timeout 120s: a wedged cancellation/deadline test must fail the gate
# with a goroutine dump, not hang it for the default 10 minutes.
echo "== go test $pkgs"
go test -timeout 120s "$pkgs"

echo "== go test -race $pkgs"
go test -race -timeout 120s "$pkgs"

# Invariant 1 across the three transports, the two tests that read
# server-side bookkeeping written after the response, and BL beside PL on one
# cluster, whose sites recycle a reply's workspace once the frame is sent:
# repeated under the race detector, fresh every time.
echo "== cross-transport invariant + post-response bookkeeping + workspace reuse + Value pointer word (race, x10)"
go test -race -count 10 -timeout 300s \
    -run 'TestAlgorithmsAgreeAcrossTransports|TestUnknownKindCountsError|TestClusterSiteRecorders|TestConcurrentLocalizedQueriesMatchInProcess' \
    ./internal/remote/
# A Value's data pointer is the collector's only way to what it points at:
# every shape of it survives forced collections, under checkptr.
go test -race -count 10 -timeout 120s -run 'TestValuePointerWordSurvivesGC' ./internal/object/

# The replica protocol (antientropy.Replica) on a deterministic network: 10 000
# seeded schedules of inserts, drops, duplicates, partitions, heals, kills and
# restarts, each held to the safety and liveness properties of
# internal/antientropy/network_test.go. A failure prints the one go test
# -seed N line that replays it and the schedule shrunk to what still fails.
echo "== replica protocol sweep (10 000 seeds)"
go test -count 1 -timeout 60s -run 'TestReplicaNetwork$' ./internal/antientropy/ -seeds 10000

# benchmark/ is a module of its own (the repository's yardstick, run by
# benchmark/run.sh), so ./... above does not see it: a change to the surface
# it imports must fail here, not in the pipeline that runs it.
echo "== benchmark module (vet + test)"
(cd benchmark && go vet . && go test -timeout 120s .)

echo "== bench smoke (1 iteration)"
go test -run - -bench 'BenchmarkTraceOverhead|BenchmarkProfileOverhead' -benchtime 1x .
go test -run - -bench 'BenchmarkWireCodec|BenchmarkLive(CA|BL|PL)' -benchtime 1x ./internal/remote/
go test -run - -bench 'BenchmarkObject' -benchtime 1x ./internal/object/
go test -run - -bench 'BenchmarkSite|BenchmarkCoordinator' -benchtime 1x ./internal/federation/
go test -run - -bench 'BenchmarkGmap' -benchtime 1x ./internal/gmap/

# Every decoder fed from a socket or a disk gets a short fuzz budget on top
# of its committed seed corpus (testdata/fuzz/): no panic, no allocation
# beyond a constant multiple of the input, re-encoding is a fixed point. So
# do the two grammars fed from a command line: no panic, an accepted fault
# spec builds a plan with finite delays, an accepted query's rendering parses
# back to itself. So does the federation document hetserve -fed and hetql -fed
# load: an accepted document survives Export → Parse. And so does a WAL file:
# a scan stops at the last whole valid frame and what it accepted re-encodes
# to the bytes it read. And so does a site's /metrics body, decoded with
# encoding/json and differenced: no panic, and an accepted snapshot
# re-encodes to a fixed point. And so does the global site's join of a
# decoded retrieve reply: no panic, the mapping-table replica unchanged,
# every view object at its class's width. A new input is minimized for at most 1 s
# (the default is 60 s), so the 10 s are spent fuzzing: at the default,
# FuzzParseFederation made 24 executions in 11 s (EXPERIMENTS.md E51).
echo "== fuzz (10s per target)"
for target in ./internal/remote:FuzzDecodeRequest ./internal/remote:FuzzDecodeResponse \
    ./internal/remote:FuzzMaterializeResponse \
    ./internal/object:FuzzDecodeObject ./internal/object:FuzzDecodeMasked ./internal/fabric:FuzzParseFaults \
    ./internal/query:FuzzParseQuery \
    ./internal/fedfile:FuzzParseFederation ./internal/store/wal:FuzzScanFrames \
    ./internal/metrics:FuzzDecodeSnapshot; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s -fuzzminimizetime 1s "${target%%:*}"
done

# Every example is a program a reader runs first; each must still run.
for example in examples/*/; do
    echo "== example smoke: go run ./$example"
    go run "./$example" >/dev/null
done

# The recovery torture runs inside the package tests above, but a fresh
# -count=1 pass here keeps the crash-recovery gate immune to test caching.
echo "== recovery torture (kill -9, fresh run)"
go test -count 1 -timeout 120s -run 'TestKillNineMidInsert' ./internal/store/wal/

# BENCH_TOPICS="strategies figures" additionally runs those hetbench topics
# on their canonical specs (internal/bench/topics.go), each gated by
# reproducing its committed BENCH_<topic>.json in every key but "version",
# and figures also on the paper's shapes.
for topic in ${BENCH_TOPICS:-}; do
    echo "== hetbench run -topic $topic"
    go run ./cmd/hetbench run -topic "$topic"
done

echo "ok"
