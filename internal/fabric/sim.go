package fabric

import (
	"context"
	"fmt"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/des"
	"github.com/hetfed/hetfed/internal/object"
)

// Sim is the simulated runtime: tasks are discrete-event processes, every
// site has a CPU and a disk resource, and all sites share one network
// medium (the paper's observation that "the transfer time gets longer when
// more component databases transfer data simultaneously" follows from the
// shared medium). Virtual time advances per the Table 1 rates.
//
// A Sim value is single-use: create one per execution.
type Sim struct {
	rates  Rates
	faults *FaultPlan
	ctx    context.Context
	sim    *des.Simulator
	cpu    map[object.SiteID]*des.Resource
	disk   map[object.SiteID]*des.Resource
	net    *des.Resource

	// Event counters. Plain (unlocked) fields are safe here: DES processes
	// run one at a time under the simulator's channel handshakes, which
	// establish happens-before edges the race detector accepts.
	diskBytes int64
	cpuOps    int64
	netBytes  int64
	perSite   map[object.SiteID]SiteCost
	pairs     map[Pair]int64
	used      bool
}

var _ Runtime = (*Sim)(nil)

// NewSim returns a simulated runtime for the given sites (component
// databases plus the global processing site).
func NewSim(rates Rates, sites []object.SiteID) *Sim {
	s := &Sim{
		rates: rates,
		sim:   des.New(),
		cpu:   make(map[object.SiteID]*des.Resource, len(sites)),
		disk:  make(map[object.SiteID]*des.Resource, len(sites)),

		perSite: make(map[object.SiteID]SiteCost),
		pairs:   make(map[Pair]int64),
	}
	for _, site := range sites {
		s.cpu[site] = s.sim.NewResource(string(site) + ".cpu")
		s.disk[site] = s.sim.NewResource(string(site) + ".disk")
	}
	s.net = s.sim.NewResource("net")
	return s
}

// WithFaults installs a fault plan consulted by strategy code through
// Proc.Faults. Call before Run.
func (s *Sim) WithFaults(fp *FaultPlan) *Sim {
	s.faults = fp
	return s
}

// RunContext implements Runtime. The simulator runs in virtual time,
// so cancellation is checked (Sleep skips its delay and strategy code unwinds
// at its next checkpoint) rather than interrupting a running event.
func (s *Sim) RunContext(ctx context.Context, name string, fn func(Proc)) (Metrics, error) {
	s.ctx = ctx
	return s.Run(name, fn)
}

// Run is RunContext with context.Background().
func (s *Sim) Run(name string, fn func(Proc)) (Metrics, error) {
	if s.used {
		return Metrics{}, fmt.Errorf("fabric: Sim is single-use; create a new one per Run")
	}
	s.used = true
	s.sim.Spawn(name, func(p *des.Proc) {
		fn(&simProc{rt: s, p: p})
	})
	if err := s.sim.Run(); err != nil {
		return Metrics{}, err
	}
	return Metrics{
		ResponseMicros:  s.sim.Now(),
		TotalBusyMicros: s.sim.TotalBusy(),
		DiskBytes:       s.diskBytes,
		CPUOps:          s.cpuOps,
		NetBytes:        s.netBytes,
		PerSite:         s.perSite,
		NetPairs:        s.pairs,
	}, nil
}

// BusyBySite returns per-resource busy time grouped by site, available
// after Run.
func (s *Sim) BusyBySite() map[string]float64 {
	return des.BusyByPrefix(s.sim.Resources())
}

type simProc struct {
	rt *Sim
	p  *des.Proc
}

var _ Proc = (*simProc)(nil)

type simHandle struct{ p *des.Proc }

func (*simHandle) isHandle() {}

// Go implements Proc.
func (sp *simProc) Go(name string, fn func(Proc)) Handle {
	child := sp.p.Spawn(name, func(p *des.Proc) {
		fn(&simProc{rt: sp.rt, p: p})
	})
	return &simHandle{p: child}
}

// Wait implements Proc.
func (sp *simProc) Wait(hs ...Handle) {
	procs := make([]*des.Proc, len(hs))
	for i, h := range hs {
		sh, ok := h.(*simHandle)
		if !ok {
			panic("fabric: foreign handle passed to sim runtime")
		}
		procs[i] = sh.p
	}
	sp.p.Join(procs...)
}

// Fork implements Proc. The legs are named: the event log lists them.
func (sp *simProc) Fork(fns ...func(Proc)) {
	hs := make([]Handle, len(fns))
	for i, fn := range fns {
		hs[i] = sp.Go(fmt.Sprintf("fork-%d", i), fn)
	}
	sp.Wait(hs...)
}

// Sink implements Proc.
func (sp *simProc) Sink(site object.SiteID) cost.Sink {
	cpu, okC := sp.rt.cpu[site]
	disk, okD := sp.rt.disk[site]
	if !okC || !okD {
		panic(fmt.Sprintf("fabric: unregistered site %s", site))
	}
	return &simSink{rt: sp.rt, p: sp.p, site: site, cpu: cpu, disk: disk}
}

// Transfer implements Proc.
func (sp *simProc) Transfer(from, to object.SiteID, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("fabric: negative transfer %d", bytes))
	}
	sp.rt.netBytes += int64(bytes)
	sp.rt.pairs[Pair{From: from, To: to}] += int64(bytes)
	sp.p.Use(sp.rt.net, float64(bytes)*sp.rt.rates.NetPerByte)
}

// Now implements Proc: the current virtual time.
func (sp *simProc) Now() float64 { return sp.p.Now() }

// Sleep implements Proc: a virtual-time delay, skipped once the runtime's
// context is done (a cancelled query stops accumulating injected Delay
// faults in virtual time).
func (sp *simProc) Sleep(micros float64) {
	if micros <= 0 {
		return
	}
	if ctx := sp.rt.ctx; ctx != nil && ctx.Err() != nil {
		return
	}
	sp.p.Delay(micros)
}

// Faults implements Proc.
func (sp *simProc) Faults() *FaultPlan { return sp.rt.faults }

// Context implements Proc.
func (sp *simProc) Context() context.Context {
	if sp.rt.ctx != nil {
		return sp.rt.ctx
	}
	return context.Background()
}

// simSink charges CPU and disk events as virtual time on the site's
// resources. It is bound to one process and must not be shared.
type simSink struct {
	rt   *Sim
	p    *des.Proc
	site object.SiteID
	cpu  *des.Resource
	disk *des.Resource
}

var _ cost.Sink = (*simSink)(nil)

// DiskRead implements cost.Sink.
func (s *simSink) DiskRead(bytes int) {
	s.rt.diskBytes += int64(bytes)
	sc := s.rt.perSite[s.site]
	sc.DiskBytes += int64(bytes)
	s.rt.perSite[s.site] = sc
	s.p.Use(s.disk, float64(bytes)*s.rt.rates.DiskPerByte)
}

// CPU implements cost.Sink.
func (s *simSink) CPU(ops int) {
	s.rt.cpuOps += int64(ops)
	sc := s.rt.perSite[s.site]
	sc.CPUOps += int64(ops)
	s.rt.perSite[s.site] = sc
	s.p.Use(s.cpu, float64(ops)*s.rt.rates.CPUPerOp)
}
