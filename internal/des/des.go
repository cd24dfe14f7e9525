// Package des is a deterministic process-based discrete-event simulation
// kernel, in the style of SimPy: simulated processes are goroutines that the
// scheduler runs one at a time, alternating through channel handshakes, so a
// simulation with the same inputs always produces the same virtual-time
// trajectory.
//
// Processes block on three primitives: Delay (advance virtual time), Use
// (hold a FIFO resource for a duration, modelling a CPU, a disk, or a shared
// network), and Join (wait for child processes). Per-resource busy time is
// accumulated, which is how the experiment harness computes the paper's
// "total execution time" (sum of work) alongside "response time" (the
// virtual makespan).
package des

import (
	"container/heap"
	"fmt"
)

// Simulator owns the virtual clock, the event queue and the resources.
// Create one with New; it is not safe for concurrent use (the concurrency
// happens inside Run, one process at a time).
type Simulator struct {
	now       float64
	seq       int
	events    eventHeap
	resources []*Resource
	alive     int
	failure   error
	yield     chan struct{}
	shutdown  chan struct{}
	running   bool
}

// New returns an empty simulator at virtual time zero.
func New() *Simulator {
	return &Simulator{
		yield:    make(chan struct{}),
		shutdown: make(chan struct{}),
	}
}

// Now returns the current virtual time (in the unit the caller charges
// durations in; hetfed uses microseconds).
func (s *Simulator) Now() float64 { return s.now }

// NewResource registers a FIFO resource (capacity one).
func (s *Simulator) NewResource(name string) *Resource {
	r := &Resource{name: name}
	s.resources = append(s.resources, r)
	return r
}

// Resources returns the registered resources in creation order.
func (s *Simulator) Resources() []*Resource {
	return append([]*Resource(nil), s.resources...)
}

// TotalBusy returns the summed busy time over all resources — the paper's
// total execution time metric.
func (s *Simulator) TotalBusy() float64 {
	t := 0.0
	for _, r := range s.resources {
		t += r.busy
	}
	return t
}

// Spawn schedules a new process to start at the current virtual time.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.alive++
	go p.run(fn)
	s.schedule(s.now, p)
	return p
}

// Run executes events until none remain. It returns an error when a process
// panicked or when processes are still blocked with an empty event queue
// (deadlock).
func (s *Simulator) Run() error {
	if s.running {
		return fmt.Errorf("des: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		if ev.t < s.now {
			return fmt.Errorf("des: time went backwards (%g < %g)", ev.t, s.now)
		}
		s.now = ev.t
		ev.p.resume <- struct{}{}
		<-s.yield
		if s.failure != nil {
			s.abort()
			return s.failure
		}
	}
	if s.alive > 0 {
		s.abort()
		return fmt.Errorf("des: deadlock: %d process(es) blocked with no pending events", s.alive)
	}
	return nil
}

// abort unwinds every parked process goroutine so none leaks.
func (s *Simulator) abort() {
	close(s.shutdown)
}

func (s *Simulator) schedule(t float64, p *Proc) {
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, p: p})
}

type event struct {
	t   float64
	seq int
	p   *Proc
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
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// errShutdown unwinds process goroutines when the simulation aborts.
type errShutdown struct{}

// Proc is a simulated process. Its methods may only be called from within
// the process's own function.
type Proc struct {
	sim      *Simulator
	name     string
	resume   chan struct{}
	finished bool
	waiters  []*Proc
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isShutdown := r.(errShutdown); isShutdown {
				return // simulation aborted; exit quietly
			}
			p.sim.failure = fmt.Errorf("des: process %s panicked: %v", p.name, r)
		}
		p.finished = true
		p.sim.alive--
		for _, w := range p.waiters {
			p.sim.schedule(p.sim.now, w)
		}
		p.waiters = nil
		p.sim.yield <- struct{}{}
	}()
	// Wait for the first scheduling event.
	p.block()
	fn(p)
}

// park yields to the scheduler and blocks until resumed.
func (p *Proc) park() {
	p.sim.yield <- struct{}{}
	p.block()
}

func (p *Proc) block() {
	select {
	case <-p.resume:
	case <-p.sim.shutdown:
		panic(errShutdown{})
	}
}

// Delay advances the process by d units of virtual time.
func (p *Proc) Delay(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %g", d))
	}
	p.sim.schedule(p.sim.now+d, p)
	p.park()
}

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.sim.Spawn(name, fn)
}

// Join blocks until every given process has finished.
func (p *Proc) Join(children ...*Proc) {
	for _, c := range children {
		for !c.finished {
			c.waiters = append(c.waiters, p)
			p.park()
		}
	}
}

// Acquire takes the resource, queueing FIFO behind current holders.
func (p *Proc) Acquire(r *Resource) {
	if !r.held {
		r.held = true
		return
	}
	r.queue = append(r.queue, p)
	p.park()
	// Ownership was transferred to us by the releaser.
}

// Release returns the resource, handing it to the next queued process.
func (p *Proc) Release(r *Resource) {
	if !r.held {
		panic(fmt.Sprintf("des: release of idle resource %s", r.name))
	}
	if len(r.queue) == 0 {
		r.held = false
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	p.sim.schedule(p.sim.now, next) // resource stays held; ownership moves
}

// Use holds the resource for d units of virtual time (acquire, delay,
// release) and accounts the duration as resource busy time.
func (p *Proc) Use(r *Resource, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative use %g on %s", d, r.name))
	}
	p.Acquire(r)
	r.busy += d
	if d > 0 {
		p.Delay(d)
	}
	p.Release(r)
}

// Resource is a capacity-one FIFO resource: a site CPU, a site disk, or the
// shared network medium.
type Resource struct {
	name  string
	held  bool
	queue []*Proc
	busy  float64
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// BusyTime returns the accumulated time the resource was held via Use.
func (r *Resource) BusyTime() float64 { return r.busy }

// BusyByPrefix sums resource busy times grouped by the prefix of the
// resource name up to the first '.', a convenience for per-site reporting.
func BusyByPrefix(rs []*Resource) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range rs {
		name := r.name
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				name = name[:i]
				break
			}
		}
		out[name] += r.busy
	}
	return out
}
