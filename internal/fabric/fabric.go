// Package fabric abstracts the execution environment the query strategies
// run on. Algorithm code is written once against Proc — structured
// spawn/join parallelism, per-site metered cost sinks, and network
// transfers — and executes on two runtimes:
//
//   - Real: goroutines and wall-clock time; cost events are counted.
//   - Sim: a discrete-event simulator; cost events additionally block the
//     calling task for the virtual time they take
//     under the paper's Table 1 rates, with per-site CPU and disk resources
//     and a shared network medium.
//
// Both runtimes account the same byte and operation counts, which is tested
// as an invariant: an execution strategy performs identical work on either
// runtime.
package fabric

import (
	"context"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
)

// Rates are the cost-model parameters of the paper's Table 1.
type Rates struct {
	// DiskPerByte is the average disk access time, µs per byte (T_d).
	DiskPerByte float64
	// NetPerByte is the average network transfer time, µs per byte (T_net).
	NetPerByte float64
	// CPUPerOp is the average CPU processing time, µs per comparison (T_c).
	CPUPerOp float64
}

// DefaultRates are the Table 1 settings: 15 µs/byte disk, 8 µs/byte
// network, 0.5 µs/comparison.
func DefaultRates() Rates {
	return Rates{DiskPerByte: 15, NetPerByte: 8, CPUPerOp: 0.5}
}

// Work converts event counts into modeled execution time (µs).
func (r Rates) Work(diskBytes, cpuOps, netBytes int64) float64 {
	return float64(diskBytes)*r.DiskPerByte +
		float64(cpuOps)*r.CPUPerOp +
		float64(netBytes)*r.NetPerByte
}

// Handle identifies a spawned task for Wait.
type Handle interface{ isHandle() }

// Proc is the execution context of one logical task (a coordinator step or
// a component-site step).
type Proc interface {
	// Go spawns a concurrent task. Every spawned task must be waited on
	// (directly or transitively) before the root task returns.
	Go(name string, fn func(Proc)) Handle
	// Wait blocks until the given tasks complete.
	Wait(hs ...Handle)
	// Fork runs the functions concurrently and waits for all of them.
	Fork(fns ...func(Proc))
	// Sink returns the cost sink charging CPU and disk work to the given
	// site, bound to this task.
	Sink(site object.SiteID) cost.Sink
	// Transfer charges a network transfer of the given size between sites.
	// On the simulated runtime the task blocks while the shared medium is
	// occupied.
	Transfer(from, to object.SiteID, bytes int)
	// Now is the runtime's clock in microseconds, the one a step span is
	// stamped on: virtual time on the simulated runtime, the span clock
	// (trace.Now, wall time) on the real runtime, so a step's span lines up
	// with the transport spans around it, in any process.
	Now() float64
	// Sleep pauses the task for the given number of microseconds: virtual
	// delay on the simulated runtime, wall-clock sleep on the real one.
	// Fault plans use it to model slow sites.
	Sleep(micros float64)
	// Faults returns the runtime's injected fault plan, nil when no faults
	// are configured. Strategy code consults it to skip dead sites and
	// degrade the answer instead of failing.
	Faults() *FaultPlan
	// Context returns the execution's context (context.Background when the
	// runtime was given none). Strategy code checks it at phase boundaries
	// and before per-site work so a cancelled or over-deadline query unwinds
	// instead of running to completion; Sleep honors it, so injected Delay
	// faults cannot outlive the query's budget.
	Context() context.Context
}

// SiteCost is the local work charged to one site during an execution.
type SiteCost struct {
	DiskBytes int64
	CPUOps    int64
}

// Pair is a directed site pair, keying network-transfer accounting.
type Pair struct {
	From object.SiteID
	To   object.SiteID
}

// Metrics summarizes one execution.
type Metrics struct {
	// ResponseMicros is the end-to-end time: virtual makespan on the
	// simulated runtime, wall-clock time on the real runtime.
	ResponseMicros float64
	// TotalBusyMicros is the summed modeled work across all resources —
	// the paper's "total execution time".
	TotalBusyMicros float64
	// Event counts underlying the modeled work.
	DiskBytes int64
	CPUOps    int64
	NetBytes  int64
	// PerSite breaks DiskBytes and CPUOps down by the site they were
	// charged to.
	PerSite map[object.SiteID]SiteCost
	// NetPairs breaks NetBytes down by directed site pair.
	NetPairs map[Pair]int64
}

// Runtime executes a root task and reports metrics. Both runtimes, Real and
// Sim, also offer Run: RunContext with context.Background().
type Runtime interface {
	// RunContext executes fn to completion, including all tasks it spawned,
	// with ctx returned from every Proc's Context. The context belongs to the
	// run, not the runtime: a shared runtime serves concurrent runs under
	// different contexts.
	RunContext(ctx context.Context, name string, fn func(Proc)) (Metrics, error)
}
