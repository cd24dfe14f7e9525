package main

import (
	"strings"

	"github.com/hetfed/hetfed/internal/exec"
)

// This file is the benchmark's catalog: every workload and every metric it
// can print, with unit and direction. BENCHMARK.json at the repository root
// declares the same sets; TestCatalogMatchesBenchmarkJSON keeps the two
// equal.

// strategies is the rotation every query generator cycles through, in the
// paper's order.
var strategies = []exec.Algorithm{exec.CA, exec.BL, exec.PL}

// stratKey is the lower-case metric prefix of a strategy.
func stratKey(a exec.Algorithm) string {
	switch a {
	case exec.CA:
		return "ca"
	case exec.BL:
		return "bl"
	default:
		return "pl"
	}
}

// workloadSpec fixes one workload's shape. Nothing here depends on the seed:
// the seed changes data values and the order of operations only.
type workloadSpec struct {
	Name string
	Why  string
	// Fed names the federation: "school" or "table2".
	Fed string
	// Clients is the number of closed-loop query generators.
	Clients int
	// Durable runs every site on a WAL engine and gives the coordinator a
	// matcher and a bind-delta log; such a cluster accepts inserts.
	Durable bool
	// Writer adds the paced insert generator beside the query generators.
	Writer bool
	// Warmup is the fixed number of warm-up queries run inside set-up.
	Warmup int
}

// insertRate is the paced writer's fixed schedule, inserts per second.
const insertRate = 40

// insertKeyBase is the first key given to an inserted object; generated
// keys stay far below it.
const insertKeyBase = 10_000_000

var workloads = []workloadSpec{
	{
		Name: "school_rpc", Fed: "school", Clients: 1, Warmup: 300,
		Why: "0.2 ms queries over a few dozen objects: fixed per-query and per-RPC cost (parse, bind, codec set-up, round trips, registry look-ups) dominates, evaluation is negligible",
	},
	{
		Name: "table2_scan", Fed: "table2", Clients: 1, Warmup: 36,
		Why: "6.9k objects, one client: data-proportional work dominates and splits three ways - CA ships objects, BL evaluates at the sites, PL fans checks out; fixed per-RPC cost is under 5%",
	},
	{
		Name: "mixed_rw", Fed: "table2", Clients: 1, Durable: true, Writer: true, Warmup: 36,
		Why: "the same federation on WAL-backed sites with 40 inserts/s beside the reader: store RPC, matcher, WAL append, bind broadcast and write locks contend with query read locks",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse; per-layer metrics
// have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a caller of the federation sees. Every
// workload reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ca_p50_ms", "ms", "lower", 0.25},
	{"bl_p50_ms", "ms", "lower", 0.25},
	{"pl_p50_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
}

// perStrategy expands a name pattern containing "{s}" into one metric per
// strategy.
func perStrategy(pattern, unit, better string) []metricSpec {
	out := make([]metricSpec, 0, len(strategies))
	for _, a := range strategies {
		name := strings.ReplaceAll(pattern, "{s}", stratKey(a))
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	return out
}

// perLayer lists the single-layer metrics of the traced pass, grouped by
// the package they measure.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	one := func(name, unit, better string) []metricSpec {
		return []metricSpec{{Name: name, Unit: unit, Better: better}}
	}
	groups := [][]metricSpec{
		// query: probes of Parse, Bind and LocalizeAll.
		one("query.parse_us", "us", "lower"),
		one("query.bind_us", "us", "lower"),
		one("query.localize_us", "us", "lower"),
		one("query.parse_bind_allocs", "count", "lower"),
		// federation: replayed step functions, slowest site per step.
		one("federation.retrieve_us", "us", "lower"),
		one("federation.materialize_us", "us", "lower"),
		one("federation.evaluate_view_us", "us", "lower"),
		one("federation.eval_local_us", "us", "lower"),
		one("federation.check_bl_us", "us", "lower"),
		one("federation.certify_bl_us", "us", "lower"),
		one("federation.navigate_us", "us", "lower"),
		one("federation.eval_navigated_us", "us", "lower"),
		one("federation.check_pl_us", "us", "lower"),
		one("federation.certify_pl_us", "us", "lower"),
		// federation: exact counts from the replay's replies.
		one("federation.retrieve_wire_bytes", "bytes", "lower"),
		one("federation.local_wire_bytes", "bytes", "lower"),
		one("federation.check_items_bl", "count", "lower"),
		one("federation.check_items_pl", "count", "lower"),
		one("federation.maybe_in", "count", "lower"),
		one("federation.certified", "count", "higher"),
		one("federation.eliminated", "count", "higher"),
		one("federation.certify_yield", "ratio", "higher"),
		one("eval.object_ns", "ns", "lower"),
		one("store.scan_ns_per_object", "ns", "lower"),
		one("store.insert_us", "us", "lower"),
		one("gmap.goid_of_ns", "ns", "lower"),
		one("gmap.locations_ns", "ns", "lower"),
		one("gmap.bind_ns", "ns", "lower"),
		one("wal.log_insert_us", "us", "lower"),
		one("wal.bytes_per_insert", "bytes", "lower"),
		one("wal.write_amp", "ratio", "lower"),
		one("wal.syncs", "count", "lower"),
		// exec: the in-process engine, the no-transport floor.
		perStrategy("exec.{s}_p50_us", "us", "lower"),
		// fabric: the paper's two metrics in virtual time, and modeled bytes.
		perStrategy("fabric.sim_{s}_response_us", "model_us", "lower"),
		perStrategy("fabric.sim_{s}_total_us", "model_us", "lower"),
		perStrategy("fabric.{s}_net_bytes", "bytes", "lower"),
		one("remote.ping_rtt_us", "us", "lower"),
		perStrategy("remote.overhead_{s}_us", "us", "lower"),
		perStrategy("remote.{s}_requests_per_query", "count", "lower"),
		perStrategy("remote.{s}_net_bytes_per_query", "bytes", "lower"),
		perStrategy("remote.{s}_wire_inflation", "ratio", "lower"),
		perStrategy("remote.{s}_server_busy_us_per_query", "us", "lower"),
		one("remote.admission_queued_per_query", "count", "lower"),
		one("remote.bl_checks_per_query", "count", "lower"),
		one("remote.pl_checks_per_query", "count", "lower"),
		one("remote.retries", "count", "lower"),
		one("remote.call_failures", "count", "lower"),
		one("remote.pool_stale", "count", "lower"),
		one("remote.shed", "count", "lower"),
		perStrategy("remote.{s}_p95_ms", "ms", "lower"),
		perStrategy("remote.{s}_p99_ms", "ms", "lower"),
		perStrategy("remote.conc_{s}_p50_ms", "ms", "lower"),
		one("remote.qps_scaling", "ratio", "higher"),
		one("remote.insert_p50_ms", "ms", "lower"),
		one("remote.insert_p95_ms", "ms", "lower"),
		one("remote.insert_alone_p50_ms", "ms", "lower"),
		one("remote.insert_wait_ms", "ms", "lower"),
		one("remote.binds_per_insert", "count", "lower"),
		perStrategy("trace.{s}_O_us", "us", "lower"),
		perStrategy("trace.{s}_I_us", "us", "lower"),
		perStrategy("trace.{s}_P_us", "us", "lower"),
		one("trace.spans_per_query", "count", "lower"),
		one("trace.overhead_ratio", "ratio", "lower"),
		one("metrics.counter_lookup_ns", "ns", "lower"),
		one("metrics.counter_lookup_allocs", "count", "lower"),
		one("metrics.snapshot_us", "us", "lower"),
		one("runtime.cpu_ms_per_query", "ms", "lower"),
		one("runtime.alloc_kb_per_query", "KiB", "lower"),
		one("runtime.mallocs_per_query", "count", "lower"),
		one("runtime.gc_pause_ms_total", "ms", "lower"),
		one("runtime.peak_rss_mb", "MiB", "lower"),
		one("loadgen.late_p95_ms", "ms", "lower"),
		one("loadgen.speed_index", "ratio", "lower"),
		perStrategy("loadgen.samples_{s}", "count", "higher"),
		one("loadgen.samples_insert", "count", "higher"),
	}
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
