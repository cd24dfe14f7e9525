package fabric

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/trace"
)

// Real is the goroutine-backed runtime: cost events are counted atomically
// and the response time is wall-clock. Use it for functional execution
// (examples, correctness tests, the TCP deployment); use Sim for the paper's
// timing experiments. Work runs on the goroutine that already holds it: the
// root task on Run's caller, a Fork's last leg on the forking task. Go tasks
// and a Fork's other legs run on parked workers, goroutines the process keeps
// with the stacks earlier tasks grew; a worker starts only when none is
// parked, and it outlives the run that started it.
//
// A Real holds nothing of a run — one serves a whole process. All per-run
// state (cost sinks, network counters, the start time, the context) lives in
// a run-scoped struct, so overlapping queries account their work
// independently.
type Real struct {
	rates  Rates
	faults *FaultPlan
}

var _ Runtime = (*Real)(nil)

// NewReal returns a real runtime with the given cost rates (used only to
// convert counts into modeled work for Metrics).
func NewReal(rates Rates) *Real {
	return &Real{rates: rates}
}

// WithFaults installs a fault plan consulted by strategy code through
// Proc.Faults. Call before Run.
func (r *Real) WithFaults(fp *FaultPlan) *Real {
	r.faults = fp
	return r
}

// realRun holds the state of one Run invocation and is the Proc of every
// task in it: a real task has no state of its own. The maps are made by the
// first event charged to them.
type realRun struct {
	rt    *Real
	ctx   context.Context
	start time.Time
	tasks sync.WaitGroup // the Go tasks: Run joins those nobody waited for, not their workers

	mu    sync.Mutex
	sinks map[object.SiteID]*cost.SharedCounter
	pairs map[Pair]int64
	err   error
}

var _ Proc = (*realRun)(nil)

// Run is RunContext with context.Background().
func (r *Real) Run(name string, fn func(Proc)) (Metrics, error) {
	return r.RunContext(context.Background(), name, fn)
}

// RunContext implements Runtime: the tasks' Context returns ctx, and
// Sleep honors it.
func (r *Real) RunContext(ctx context.Context, name string, fn func(Proc)) (Metrics, error) {
	run := &realRun{rt: r, ctx: ctx, start: time.Now()}
	run.exec(name, fn)
	run.tasks.Wait()
	m := Metrics{
		ResponseMicros: float64(time.Since(run.start).Nanoseconds()) / 1e3,
		NetPairs:       run.pairs, // every writer has been joined
	}
	for _, n := range run.pairs {
		m.NetBytes += n
	}
	if len(run.sinks) > 0 {
		m.PerSite = make(map[object.SiteID]SiteCost, len(run.sinks))
	}
	for site, c := range run.sinks {
		m.DiskBytes += c.DiskBytes()
		m.CPUOps += c.CPUOps()
		m.PerSite[site] = SiteCost{DiskBytes: c.DiskBytes(), CPUOps: c.CPUOps()}
	}
	m.TotalBusyMicros = r.rates.Work(m.DiskBytes, m.CPUOps, m.NetBytes)
	return m, run.err
}

// Sink implements Proc.
func (run *realRun) Sink(site object.SiteID) cost.Sink {
	run.mu.Lock()
	defer run.mu.Unlock()
	c := run.sinks[site]
	if c == nil {
		if run.sinks == nil {
			run.sinks = make(map[object.SiteID]*cost.SharedCounter)
		}
		c = &cost.SharedCounter{}
		run.sinks[site] = c
	}
	return c
}

// exec runs one task on the calling goroutine; a panic in it becomes the
// run's error instead of unwinding the caller.
func (run *realRun) exec(name string, fn func(Proc)) {
	defer func() {
		if rec := recover(); rec != nil {
			run.mu.Lock()
			defer run.mu.Unlock()
			if run.err == nil {
				run.err = fmt.Errorf("fabric: task %s panicked: %v", name, rec)
			}
		}
	}()
	fn(run)
}

// Workers. A fresh goroutine starts on a 2 KiB stack, and a leg's call
// chain (client call, exchange, reply decode) grows it again every time,
// because a goroutine's grown stack is freed when it exits (EXPERIMENTS.md
// E45). A worker that has run a task parks for the next one until idleFor
// passes without one, so nothing stays behind a quiet process or a dropped
// Real, and never beside maxIdle others.
const (
	maxIdle = 64
	idleFor = time.Second
)

var (
	handoff = make(chan func()) // unbuffered: a send succeeds only into a parked worker
	idle    atomic.Int32        // the workers parked on handoff
)

// spawn runs task on a parked worker, or on a new one if none is parked.
func spawn(task func()) {
	select {
	case handoff <- task:
	default:
		go work(task)
	}
}

// work runs task, then every task handed to it while it is parked.
func work(task func()) {
	var timer *time.Timer
	for {
		task()
		if idle.Add(1) > maxIdle {
			idle.Add(-1)
			return
		}
		if timer == nil {
			timer = time.NewTimer(idleFor)
		} else {
			timer.Reset(idleFor)
		}
		select {
		case task = <-handoff:
			idle.Add(-1)
		case <-timer.C:
			idle.Add(-1)
			return
		}
	}
}

type realHandle struct{ done chan struct{} }

func (*realHandle) isHandle() {}

// Go implements Proc.
func (run *realRun) Go(name string, fn func(Proc)) Handle {
	h := &realHandle{done: make(chan struct{})}
	run.tasks.Add(1)
	spawn(func() {
		run.exec(name, fn) // recovers, so the worker survives a panic
		close(h.done)
		run.tasks.Done()
	})
	return h
}

// Wait implements Proc.
func (run *realRun) Wait(hs ...Handle) {
	for _, h := range hs {
		rh, ok := h.(*realHandle)
		if !ok {
			panic("fabric: foreign handle passed to real runtime")
		}
		<-rh.done
	}
}

// Fork implements Proc: every leg but the last goes to a worker, the last
// runs here — the forking task would only sleep until the legs are done. A
// Fork of one hands nothing off.
func (run *realRun) Fork(fns ...func(Proc)) {
	if len(fns) == 0 {
		return
	}
	last := len(fns) - 1
	var legs sync.WaitGroup
	legs.Add(last)
	for _, fn := range fns[:last] {
		spawn(func() {
			run.exec("fork", fn)
			legs.Done()
		})
	}
	run.exec("fork", fns[last])
	legs.Wait()
}

// Transfer implements Proc.
func (run *realRun) Transfer(from, to object.SiteID, bytes int) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.pairs == nil {
		run.pairs = make(map[Pair]int64)
	}
	run.pairs[Pair{From: from, To: to}] += int64(bytes)
}

// Now implements Proc: the span clock, trace.Now.
func (run *realRun) Now() float64 { return trace.Now() }

// Sleep implements Proc: a wall-clock sleep, cut short when the run's
// context is done — a wedged (Delay-faulted) site step must not outlive the
// query's deadline or cancellation.
func (run *realRun) Sleep(micros float64) {
	if micros <= 0 {
		return
	}
	d := time.Duration(micros * float64(time.Microsecond))
	if run.ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-run.ctx.Done():
	}
}

// Faults implements Proc.
func (run *realRun) Faults() *FaultPlan { return run.rt.faults }

// Context implements Proc.
func (run *realRun) Context() context.Context { return run.ctx }
