// Package hetfed reproduces "Query Execution Strategies for Missing Data in
// Distributed Heterogeneous Object Databases" (Koh and Chen, ICDCS 1996): a
// federation of heterogeneous object databases whose global queries return
// certain and maybe results under missing data, executed by the paper's
// centralized (CA), basic localized (BL) and parallel localized (PL)
// strategies — plus its Section 5 extensions (object signatures,
// disjunctive predicates, multi-valued attributes) and the systems around
// them (cost-based planning, secondary indexes, TCP deployment, JSON
// federation documents).
//
// This file is the public API: a documented facade over the packages under
// internal/, organized by the workflow a downstream user follows — model a
// federation, integrate its schemas, identify isomeric objects, then
// execute global queries, for real or inside the discrete-event simulator.
// The worked example (examples/quickstart) uses exactly this surface; the
// paper's Figures 9–11 study is cmd/hetbench's `figures` topic, not API.
package hetfed

import (
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/workload"
)

//
// Object model — typed values, local/global identifiers, stored objects.
//

type (
	// Value is an immutable attribute value; build one with Int, Float,
	// Str, Bool, Ref, GRef, List or Null.
	Value = object.Value
	// Kind enumerates the value kinds.
	Kind = object.Kind
	// Object is a stored object: an LOid plus named attribute values.
	Object = object.Object
	// LOid identifies an object within one component database.
	LOid = object.LOid
	// GOid identifies a real-world entity across the federation; isomeric
	// objects share one.
	GOid = object.GOid
	// SiteID names a component database or the global processing site.
	SiteID = object.SiteID
)

// Value kinds.
const (
	KindNull   = object.KindNull
	KindInt    = object.KindInt
	KindFloat  = object.KindFloat
	KindString = object.KindString
	KindBool   = object.KindBool
	KindRef    = object.KindRef
	KindGRef   = object.KindGRef
	KindList   = object.KindList
)

// Value constructors (see the corresponding internal/object functions).
var (
	Null  = object.Null
	Int   = object.Int
	Float = object.Float
	Str   = object.Str
	Bool  = object.Bool
	Ref   = object.Ref
	GRef  = object.GRef
	List  = object.List
)

// NewObject builds a stored object; null and zero values are normalized to
// missing data.
func NewObject(id LOid, class string, attrs map[string]Value) *Object {
	return object.New(id, class, attrs)
}

//
// Schemas — component classes and global-schema integration.
//

type (
	// Attribute describes one class attribute (primitive or complex).
	Attribute = schema.Attribute
	// Class is one class of a component schema.
	Class = schema.Class
	// Schema is one component database's schema.
	Schema = schema.Schema
	// Constituent names a constituent class of a global class.
	Constituent = schema.Constituent
	// Correspondence declares which constituent classes integrate into one
	// global class.
	Correspondence = schema.Correspondence
	// Global is the integrated global schema.
	Global = schema.Global
	// GlobalClass is one class of the global schema, with per-site
	// missing-attribute sets.
	GlobalClass = schema.GlobalClass
)

// Schema construction helpers.
var (
	// Prim returns a primitive attribute descriptor.
	Prim = schema.Prim
	// Complex returns a complex (class-valued) attribute descriptor.
	Complex = schema.Complex
	// NewClass builds a class from attributes plus an optional entity key.
	NewClass = schema.NewClass
	// MustClass is NewClass for fixtures; it panics on error.
	MustClass = schema.MustClass
	// NewSchema returns an empty component schema for a site.
	NewSchema = schema.NewSchema
)

// Integrate constructs the global schema from component schemas and class
// correspondences: each global class is the attribute union of its
// constituents, and the attributes a constituent lacks become its missing
// attributes.
func Integrate(schemas map[SiteID]*Schema, corrs []Correspondence) (*Global, error) {
	return schema.Integrate(schemas, corrs)
}

//
// Storage — per-site object stores.
//

type (
	// Database is one component database: class extents indexed by LOid.
	Database = store.Database
)

// Database constructors.
var (
	// NewDatabase returns an empty database over a validated schema.
	NewDatabase = store.NewDatabase
	// MustNewDatabase is NewDatabase for fixtures; it panics on error.
	MustNewDatabase = store.MustNewDatabase
)

//
// Isomerism — GOid mapping tables relating objects that represent the same
// real-world entity.
//

type (
	// MappingTables groups the per-class GOid mapping tables.
	MappingTables = gmap.Tables
	// MappingTable is one global class's GOid mapping table.
	MappingTable = gmap.Table
	// Location is one stored isomeric object: a site plus its LOid.
	Location = gmap.Location
	// Matcher maintains the entity partition incrementally (live inserts).
	Matcher = isomer.Matcher
)

// Isomerism helpers.
var (
	// Identify discovers isomeric objects by entity-key equality and
	// builds the mapping tables.
	Identify = isomer.Identify
	// NewMatcher returns an empty incremental matcher.
	NewMatcher = isomer.NewMatcher
	// ValidateMapping cross-checks mapping tables against the databases.
	ValidateMapping = isomer.Validate
	// CountIsomeric reports entities stored at more than one site.
	CountIsomeric = isomer.CountIsomeric
)

//
// Queries — the SQL/X-like global query language.
//

type (
	// Query is a parsed global query (single range class, nested
	// predicates in disjunctive normal form).
	Query = query.Query
	// Bound is a query validated against the global schema.
	Bound = query.Bound
	// Predicate is one nested predicate.
	Predicate = query.Predicate
	// Path is a path expression through the composition hierarchy.
	Path = query.Path
	// LocalQuery is a per-site derivation of a global query (the paper's
	// Q1 → Q1'/Q1'' step).
	LocalQuery = query.LocalQuery
)

// Query helpers.
var (
	// ParseQuery parses the SQL/X-like surface syntax.
	ParseQuery = query.Parse
	// BindQuery validates a query against the global schema.
	BindQuery = query.Bind
)

//
// Execution — the paper's strategies over real or simulated runtimes.
//

type (
	// Algorithm selects an execution strategy.
	Algorithm = exec.Algorithm
	// Engine executes global queries against a federation.
	Engine = exec.Engine
	// EngineConfig assembles an engine.
	EngineConfig = exec.Config
	// Answer is a query result: certain rows plus maybe rows.
	Answer = federation.Answer
	// ResultRow is one entity in an answer, with its merged target values
	// and — for maybe rows — the indexes of its unresolved predicates.
	ResultRow = federation.ResultRow
	// Runtime executes a strategy: NewRealRuntime or NewSimRuntime.
	Runtime = fabric.Runtime
	// Metrics reports an execution's response time, total modeled work and
	// event counts.
	Metrics = fabric.Metrics
	// Rates are the Table 1 cost parameters.
	Rates = fabric.Rates
)

// The execution strategies: centralized, basic localized, parallel
// localized, and the signature-assisted localized variants.
const (
	CA  = exec.CA
	BL  = exec.BL
	PL  = exec.PL
	SBL = exec.SBL
	SPL = exec.SPL
)

// Execution helpers.
var (
	// NewEngine builds a query engine from a federation configuration.
	NewEngine = exec.New
	// Algorithms lists the paper's strategies (CA, BL, PL).
	Algorithms = exec.Algorithms
	// AllAlgorithms additionally includes SBL and SPL.
	AllAlgorithms = exec.AllAlgorithms
	// DefaultRates returns the paper's Table 1 cost parameters.
	DefaultRates = fabric.DefaultRates
	// NewRealRuntime executes strategies with goroutines and wall-clock
	// time, counting modeled costs.
	NewRealRuntime = fabric.NewReal
	// NewSimRuntime executes strategies inside the deterministic
	// discrete-event simulator; register every site plus the coordinator.
	NewSimRuntime = fabric.NewSim
)

//
// Signatures — the paper's Section 5 extension (strategies SBL and SPL).
//

type (
	// SignatureIndex is the replicated object-signature store.
	SignatureIndex = signature.Index
)

// BuildSignatures computes the signature index over a federation.
var BuildSignatures = signature.Build

//
// Planning — cost-based strategy selection from catalog statistics.
//

type (
	// Catalog summarizes the federation for the planner.
	Catalog = planner.Catalog
	// Estimate is one strategy's predicted cost.
	Estimate = planner.Estimate
)

// Planner helpers.
var (
	// BuildCatalog scans the federation and gathers statistics.
	BuildCatalog = planner.BuildCatalog
	// NewSelector builds the strategy chooser over a catalog for queries
	// the given site coordinates; the health hook (breaker states) may be
	// nil. Its Estimate prices CA, BL and PL, its Select picks the cheapest.
	// One that has observed no query prices every site at Table 1's rates;
	// wired into EngineConfig.Selector it also resolves the adaptive
	// strategy and re-rates each site from the queries it sees.
	NewSelector = planner.NewSelector
)

//
// Federation documents — JSON load/save.
//

type (
	// FederationDoc is a loaded federation (schemas, global schema,
	// databases, mapping tables).
	FederationDoc = fedfile.Federation
)

// Federation document helpers.
var (
	// ParseFederation builds a federation from JSON bytes.
	ParseFederation = fedfile.Parse
	// ExportFederation renders a federation as JSON.
	ExportFederation = fedfile.Export
)

//
// Workloads — the paper's Table 2 generator.
//

type (
	// WorkloadRanges are the Table 2 parameter ranges.
	WorkloadRanges = workload.Ranges
	// Workload is one generated federation plus its query.
	Workload = workload.Workload
)

// Workload helpers.
var (
	// DefaultWorkloadRanges returns the paper's Table 2 default setting.
	DefaultWorkloadRanges = workload.DefaultRanges
	// GenerateWorkload builds one randomized federation from drawn
	// parameters.
	GenerateWorkload = workload.Generate
)

//
// Observability — the per-site metrics registry.
//

type (
	// MetricsRegistry holds counters, gauges and histograms keyed by
	// (site, peer, algorithm, phase). Wire one into EngineConfig.Metrics
	// or RemoteCoordinator.Metrics.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry returns an empty metrics registry.
var NewMetricsRegistry = metrics.New

//
// TCP deployment — the federation over real sockets.
//

type (
	// Cluster is a federation served over loopback TCP, one site server per
	// database, wired as peers and to a coordinator; Kill and Restart rewire.
	Cluster = remote.Cluster
	// ClusterConfig names the federation, an optional durable data root, a
	// per-site config hook and the coordinator to wire.
	ClusterConfig = remote.ClusterConfig
	// RemoteCoordinator executes queries (and inserts) against a cluster
	// of site servers.
	RemoteCoordinator = remote.Coordinator
)

// StartCluster serves a federation over loopback TCP and wires the
// coordinator the config names to it; Close tears both down.
var StartCluster = remote.StartCluster

//
// Example federation — the paper's Figures 1–5 school databases, used by
// the examples, the tests and the CLIs.
//

type (
	// ExampleFixture bundles the school federation: schemas, global
	// schema, databases and mapping tables.
	ExampleFixture = school.Fixture
)

// SchoolQ1 is the paper's example query Q1.
const SchoolQ1 = school.Q1

// SchoolExample builds a fresh copy of the school federation.
var SchoolExample = school.New
