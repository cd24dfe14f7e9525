package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
)

// Real is the goroutine-backed runtime: spawned tasks are goroutines, cost
// events are counted atomically, and the response time is wall-clock. Use
// it for functional execution (examples, correctness tests, the TCP
// deployment); use Sim for the paper's timing experiments.
//
// A single Real may be shared by concurrent Run calls: all per-run state
// (cost sinks, network counters, the start time) lives in a run-scoped
// struct, so overlapping queries account their work independently.
type Real struct {
	rates  Rates
	faults *FaultPlan
	ctx    context.Context
}

var (
	_ Runtime        = (*Real)(nil)
	_ ContextRuntime = (*Real)(nil)
)

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

// WithContext returns a copy of the runtime bound to ctx, consulted by
// Proc.Context and honored by Sleep (a cancelled context cuts injected
// delays short). The receiver is left untouched so a Real shared by
// concurrent Runs can bind a different context per query.
func (r *Real) WithContext(ctx context.Context) *Real {
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// BindContext implements ContextRuntime.
func (r *Real) BindContext(ctx context.Context) Runtime { return r.WithContext(ctx) }

// realRun holds the state of one Run invocation. Concurrent Runs over a
// shared Real each get their own realRun, so their sinks, byte counters
// and clocks never interleave.
type realRun struct {
	rt    *Real
	mu    sync.Mutex
	sinks map[object.SiteID]*cost.Counter
	net   int64
	pairs map[Pair]int64
	start time.Time
	err   error
}

// Run implements Runtime.
func (r *Real) Run(name string, fn func(Proc)) (Metrics, error) {
	run := &realRun{
		rt:    r,
		sinks: make(map[object.SiteID]*cost.Counter),
		pairs: make(map[Pair]int64),
		start: time.Now(),
	}

	var wg sync.WaitGroup
	root := &realProc{run: run, wg: &wg}
	root.exec(name, fn)
	wg.Wait()
	elapsed := time.Since(run.start)

	run.mu.Lock()
	defer run.mu.Unlock()
	m := Metrics{
		ResponseMicros: float64(elapsed.Nanoseconds()) / 1e3,
		PerSite:        make(map[object.SiteID]SiteCost, len(run.sinks)),
		NetPairs:       make(map[Pair]int64, len(run.pairs)),
	}
	for site, c := range run.sinks {
		m.DiskBytes += c.DiskBytes()
		m.CPUOps += c.CPUOps()
		m.PerSite[site] = SiteCost{DiskBytes: c.DiskBytes(), CPUOps: c.CPUOps()}
	}
	m.NetBytes = run.net
	for pair, bytes := range run.pairs {
		m.NetPairs[pair] = bytes
	}
	m.TotalBusyMicros = r.rates.Work(m.DiskBytes, m.CPUOps, m.NetBytes)
	return m, run.err
}

func (run *realRun) sink(site object.SiteID) *cost.Counter {
	run.mu.Lock()
	defer run.mu.Unlock()
	c := run.sinks[site]
	if c == nil {
		c = &cost.Counter{}
		run.sinks[site] = c
	}
	return c
}

func (run *realRun) fail(err error) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.err == nil {
		run.err = err
	}
}

type realProc struct {
	run *realRun
	wg  *sync.WaitGroup
}

var _ Proc = (*realProc)(nil)

type realHandle struct{ done chan struct{} }

func (*realHandle) isHandle() {}

// exec runs one task on the calling goroutine; a panic in it becomes the
// run's error instead of unwinding the caller.
func (p *realProc) exec(name string, fn func(Proc)) {
	defer func() {
		if rec := recover(); rec != nil {
			p.run.fail(fmt.Errorf("fabric: task %s panicked: %v", name, rec))
		}
	}()
	fn(p)
}

// Go implements Proc.
func (p *realProc) Go(name string, fn func(Proc)) Handle {
	h := &realHandle{done: make(chan struct{})}
	child := &realProc{run: p.run, wg: p.wg}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(h.done)
		child.exec(name, fn)
	}()
	return h
}

// Wait implements Proc.
func (p *realProc) Wait(hs ...Handle) {
	for _, h := range hs {
		rh, ok := h.(*realHandle)
		if !ok {
			panic("fabric: foreign handle passed to real runtime")
		}
		<-rh.done
	}
}

// Fork implements Proc: every leg but the last gets a goroutine, the last
// runs here — the forking task would only sleep until the legs are done. A
// Fork of one starts nothing.
func (p *realProc) Fork(fns ...func(Proc)) {
	if len(fns) == 0 {
		return
	}
	last := len(fns) - 1
	var legs sync.WaitGroup
	for _, fn := range fns[:last] {
		legs.Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer legs.Done()
			p.exec("fork", fn)
		}()
	}
	p.exec("fork", fns[last])
	legs.Wait()
}

// Sink implements Proc.
func (p *realProc) Sink(site object.SiteID) cost.Sink { return p.run.sink(site) }

// Transfer implements Proc. A duplicating link fault charges the transfer
// twice (the retransmit the receiver absorbs); link delay is injected by
// the remote client on this runtime, not here, so it shows up in measured
// wall-clock latency rather than as a second accounting entry.
func (p *realProc) Transfer(from, to object.SiteID, bytes int) {
	copies := p.run.rt.faults.TransferCopies(from, to)
	p.run.mu.Lock()
	for i := 0; i < copies; i++ {
		p.run.net += int64(bytes)
		p.run.pairs[Pair{From: from, To: to}] += int64(bytes)
	}
	p.run.mu.Unlock()
}

// Now implements Proc: wall-clock microseconds since Run started.
func (p *realProc) Now() float64 {
	return float64(time.Since(p.run.start).Nanoseconds()) / 1e3
}

// Sleep implements Proc: a wall-clock sleep, cut short when the runtime's
// context is done — a wedged (Delay-faulted) site step must not outlive the
// query's deadline or cancellation.
func (p *realProc) Sleep(micros float64) {
	if micros <= 0 {
		return
	}
	d := time.Duration(micros * float64(time.Microsecond))
	ctx := p.run.rt.ctx
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Faults implements Proc.
func (p *realProc) Faults() *FaultPlan { return p.run.rt.faults }

// Context implements Proc.
func (p *realProc) Context() context.Context {
	if p.run.rt.ctx != nil {
		return p.run.rt.ctx
	}
	return context.Background()
}
