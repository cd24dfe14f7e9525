package fabric

import (
	"container/heap"
	"context"
	"fmt"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
)

// Sim is the simulated runtime, a process-based discrete-event simulator in
// the style of SimPy: tasks are goroutines that Run resumes one at a time
// through channel handshakes, so the same inputs always give the same
// virtual-time trajectory. Every site has a CPU and a disk, and all sites
// share one network medium, each a capacity-one FIFO resource (the paper's
// observation that "the transfer time gets longer when more component
// databases transfer data simultaneously" follows from the shared medium).
// Virtual time advances per the Table 1 rates.
//
// A Sim value is single-use: create one per execution.
type Sim struct {
	rates  Rates
	faults *FaultPlan
	ctx    context.Context
	res    []resource            // each site's CPU and disk, then the network
	site   map[object.SiteID]int // a site's CPU is res[i], its disk res[i+1]

	// The kernel and the event counters. Plain (unlocked) fields are safe
	// here: tasks run one at a time under the channel handshakes with Run,
	// which establish happens-before edges the race detector accepts.
	now      float64
	seq      int // orders events at the same time by when they were scheduled
	events   eventHeap
	alive    int // tasks started and not yet finished
	failure  error
	yield    chan struct{} // a task hands control back to Run
	shutdown chan struct{} // closed when Run gives up: parked tasks unwind
	perSite  map[object.SiteID]SiteCost
	pairs    map[Pair]int64
	used     bool
}

var _ Runtime = (*Sim)(nil)

// NewSim returns a simulated runtime for the given sites (component
// databases plus the global processing site).
func NewSim(rates Rates, sites []object.SiteID) *Sim {
	s := &Sim{
		rates:    rates,
		res:      make([]resource, 2*len(sites)+1),
		site:     make(map[object.SiteID]int, len(sites)),
		yield:    make(chan struct{}),
		shutdown: make(chan struct{}),
		perSite:  make(map[object.SiteID]SiteCost),
		pairs:    make(map[Pair]int64),
	}
	for i, site := range sites {
		s.site[site] = 2 * i
	}
	return s
}

// WithFaults installs a fault plan consulted by strategy code through
// Proc.Faults. Call before Run.
func (s *Sim) WithFaults(fp *FaultPlan) *Sim {
	s.faults = fp
	return s
}

// Run is RunContext with context.Background().
func (s *Sim) Run(name string, fn func(Proc)) (Metrics, error) {
	return s.RunContext(context.Background(), name, fn)
}

// RunContext implements Runtime: it resumes the task with the earliest event
// until none is left. The simulator runs in virtual time, so cancellation is
// checked (Sleep skips its delay and strategy code unwinds at its next
// checkpoint) rather than interrupting a running event. A panicking task
// fails the run, and so do tasks left blocked with no event pending (a
// deadlock); either way every parked task's goroutine unwinds.
func (s *Sim) RunContext(ctx context.Context, name string, fn func(Proc)) (Metrics, error) {
	if s.used {
		return Metrics{}, fmt.Errorf("fabric: Sim is single-use; create a new one per Run")
	}
	s.used, s.ctx = true, ctx
	s.spawn(name, fn)
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		s.now = ev.t
		ev.p.resume <- struct{}{}
		<-s.yield
		if s.failure != nil {
			close(s.shutdown)
			return Metrics{}, s.failure
		}
	}
	if s.alive > 0 {
		close(s.shutdown)
		return Metrics{}, fmt.Errorf("fabric: deadlock: %d task(s) blocked with no pending events", s.alive)
	}
	m := Metrics{ResponseMicros: s.now, PerSite: s.perSite, NetPairs: s.pairs}
	// Each resource's busy time is its own sum, and they are added in
	// creation order: one running sum over all charges rounds differently.
	for _, r := range s.res {
		m.TotalBusyMicros += r.busy
	}
	for _, c := range s.perSite {
		m.DiskBytes += c.DiskBytes
		m.CPUOps += c.CPUOps
	}
	for _, n := range s.pairs {
		m.NetBytes += n
	}
	return m, nil
}

func (s *Sim) spawn(name string, fn func(Proc)) *simProc {
	p := &simProc{sim: s, resume: make(chan struct{})}
	s.alive++
	go p.run(name, fn)
	s.schedule(s.now, p)
	return p
}

func (s *Sim) schedule(t float64, p *simProc) {
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, p: p})
}

// An event resumes task p at time t; events at the same time run in the
// order they were scheduled.
type event struct {
	t   float64
	seq int
	p   *simProc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// resource is a capacity-one FIFO resource: a site's CPU or disk, or the
// shared network medium.
type resource struct {
	held  bool
	queue []*simProc
	busy  float64
}

// errShutdown unwinds a parked task's goroutine when Run gives up.
type errShutdown struct{}

// simProc is one task, and its own Handle. Its methods may only be called
// from within the task's own function.
type simProc struct {
	sim      *Sim
	resume   chan struct{} // Run resumes the task at its next event
	finished bool
	waiters  []*simProc // the tasks in Wait on this one
}

var _ Proc = (*simProc)(nil)

func (*simProc) isHandle() {}

// run is the task's goroutine: it waits for its first event, runs fn, then
// wakes its waiters at the current time and hands control back to Run.
func (p *simProc) run(name string, fn func(Proc)) {
	s := p.sim
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errShutdown); ok {
				return // Run gave up and receives nothing more
			}
			s.failure = fmt.Errorf("fabric: task %s panicked: %v", name, r)
		}
		p.finished = true
		s.alive--
		for _, w := range p.waiters {
			s.schedule(s.now, w)
		}
		s.yield <- struct{}{}
	}()
	p.block()
	fn(p)
}

// park hands control back to Run and blocks until the task's next event.
func (p *simProc) park() {
	p.sim.yield <- struct{}{}
	p.block()
}

func (p *simProc) block() {
	select {
	case <-p.resume:
	case <-p.sim.shutdown:
		panic(errShutdown{})
	}
}

func (p *simProc) delay(d float64) {
	p.sim.schedule(p.sim.now+d, p)
	p.park()
}

// use holds r for d µs and adds d to r's busy time. A task that finds r held
// queues behind the holders; a releaser hands r to the first in the queue,
// which resumes with r still held.
func (p *simProc) use(r *resource, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("fabric: negative charge %g", d))
	}
	if r.held {
		r.queue = append(r.queue, p)
		p.park()
	}
	r.held = true
	r.busy += d
	if d > 0 {
		p.delay(d)
	}
	if len(r.queue) == 0 {
		r.held = false
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	p.sim.schedule(p.sim.now, next)
}

// Go implements Proc.
func (p *simProc) Go(name string, fn func(Proc)) Handle { return p.sim.spawn(name, fn) }

// Wait implements Proc.
func (p *simProc) Wait(hs ...Handle) {
	for _, h := range hs {
		c, ok := h.(*simProc)
		if !ok {
			panic("fabric: foreign handle passed to sim runtime")
		}
		for !c.finished {
			c.waiters = append(c.waiters, p)
			p.park()
		}
	}
}

// Fork implements Proc.
func (p *simProc) Fork(fns ...func(Proc)) {
	hs := make([]Handle, len(fns))
	for i, fn := range fns {
		hs[i] = p.Go("fork", fn)
	}
	p.Wait(hs...)
}

// Sink implements Proc.
func (p *simProc) Sink(site object.SiteID) cost.Sink {
	i, ok := p.sim.site[site]
	if !ok {
		panic(fmt.Sprintf("fabric: unregistered site %s", site))
	}
	return &simSink{p: p, site: site, cpu: &p.sim.res[i], disk: &p.sim.res[i+1]}
}

// Transfer implements Proc.
func (p *simProc) Transfer(from, to object.SiteID, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("fabric: negative transfer %d", bytes))
	}
	s := p.sim
	s.pairs[Pair{From: from, To: to}] += int64(bytes)
	p.use(&s.res[len(s.res)-1], float64(bytes)*s.rates.NetPerByte)
}

// Now implements Proc: the current virtual time.
func (p *simProc) Now() float64 { return p.sim.now }

// Sleep implements Proc: a virtual-time delay, skipped once the runtime's
// context is done (a cancelled query stops accumulating injected Delay
// faults in virtual time).
func (p *simProc) Sleep(micros float64) {
	if micros > 0 && p.sim.ctx.Err() == nil {
		p.delay(micros)
	}
}

// Faults implements Proc.
func (p *simProc) Faults() *FaultPlan { return p.sim.faults }

// Context implements Proc.
func (p *simProc) Context() context.Context { return p.sim.ctx }

// simSink charges CPU and disk events as virtual time on the site's
// resources. It is bound to one task and must not be shared.
type simSink struct {
	p         *simProc
	site      object.SiteID
	cpu, disk *resource
}

var _ cost.Sink = (*simSink)(nil)

// DiskRead implements cost.Sink.
func (k *simSink) DiskRead(bytes int) {
	s := k.p.sim
	sc := s.perSite[k.site]
	sc.DiskBytes += int64(bytes)
	s.perSite[k.site] = sc
	k.p.use(k.disk, float64(bytes)*s.rates.DiskPerByte)
}

// CPU implements cost.Sink.
func (k *simSink) CPU(ops int) {
	s := k.p.sim
	sc := s.perSite[k.site]
	sc.CPUOps += int64(ops)
	s.perSite[k.site] = sc
	k.p.use(k.cpu, float64(ops)*s.rates.CPUPerOp)
}
