package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/store/wal"
	"github.com/hetfed/hetfed/internal/trace"
)

// spanLimit bounds each tracer of a traced cluster, the value hetserve runs
// its long-lived tracers with.
const spanLimit = 4096

// clusterOpts selects the two ways a cluster can differ from the system
// under test's plain form. Every other option field of the servers and the
// coordinator keeps its zero value, so a later change of a default is
// measured without editing the benchmark.
type clusterOpts struct {
	// Durable puts every site on a WAL engine (Fsync off, default snapshot
	// cadence) and gives the coordinator a matcher and a bind-delta log.
	Durable bool
	// Traced wires a tracer into every server and a tracer plus flight
	// recorder into the coordinator.
	Traced bool
	// Dir is where a durable cluster creates its fresh WAL directory.
	Dir string
	// Seed seeds the cluster's insert generator.
	Seed int64
}

// cluster is the system under test: three site servers on 127.0.0.1:0 and
// one coordinator, all in the benchmark's process, talking over host
// loopback.
type cluster struct {
	fd       *fedData
	coord    *remote.Coordinator
	servers  []*remote.Server
	regs     []*metrics.Registry // coordinator first, then sites
	recorder *obs.Recorder
	closers  []func() error
	walDir   string
	closed   bool

	// Insert state, durable clusters only. The writer goroutine owns both
	// while a block runs.
	ins   *inserter
	acked map[object.GOid]bool
}

func startCluster(fd *fedData, opts clusterOpts) (cl *cluster, err error) {
	cl = &cluster{fd: fd, acked: map[object.GOid]bool{}}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	if opts.Durable {
		if cl.walDir, err = os.MkdirTemp(opts.Dir, "wal-"); err != nil {
			return cl, err
		}
	}
	newTracer := func() *trace.Tracer {
		if !opts.Traced {
			return nil
		}
		tr := &trace.Tracer{}
		tr.SetLimit(spanLimit)
		return tr
	}

	coordReg := metrics.New()
	cl.regs = append(cl.regs, coordReg)
	addrs := make(map[object.SiteID]string, len(fd.Sites))
	for _, site := range fd.Sites {
		reg := metrics.New()
		cl.regs = append(cl.regs, reg)
		cfg := remote.ServerConfig{
			DB:      fd.Databases[site],
			Global:  fd.Global,
			Tables:  fd.Tables,
			Metrics: reg,
			Tracer:  newTracer(),
		}
		if opts.Durable {
			eng, db, tables, err := wal.Open(cfg.DB.Schema(), wal.Options{
				Dir:     filepath.Join(cl.walDir, string(site)),
				Site:    string(site),
				Metrics: reg,
			})
			if err != nil {
				return cl, fmt.Errorf("wal open %s: %w", site, err)
			}
			cl.closers = append(cl.closers, eng.Close)
			if err := eng.Import(cfg.DB, fd.Tables); err != nil {
				return cl, fmt.Errorf("wal import %s: %w", site, err)
			}
			cfg.DB, cfg.Tables, cfg.Engine = db, tables, eng
		}
		srv, err := remote.NewServer(cfg)
		if err != nil {
			return cl, fmt.Errorf("server %s: %w", site, err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return cl, fmt.Errorf("listen %s: %w", site, err)
		}
		cl.servers = append(cl.servers, srv)
		addrs[site] = srv.Addr()
	}
	for _, srv := range cl.servers {
		srv.SetPeers(addrs)
	}

	cl.coord = &remote.Coordinator{
		ID:      coordinatorID,
		Global:  fd.Global,
		Tables:  fd.Tables,
		Sites:   addrs,
		Metrics: coordReg,
		Tracer:  newTracer(),
	}
	if opts.Traced {
		cl.recorder = obs.NewRecorder(obs.RecorderConfig{Site: string(coordinatorID), Metrics: coordReg})
		cl.coord.Recorder = cl.recorder
	}
	if opts.Durable {
		log, tables, err := wal.OpenLog(wal.Options{
			Dir:     filepath.Join(cl.walDir, string(coordinatorID)),
			Site:    string(coordinatorID),
			Metrics: coordReg,
		})
		if err != nil {
			return cl, fmt.Errorf("delta log: %w", err)
		}
		cl.closers = append(cl.closers, log.Close)
		if err := log.Import(nil, fd.Tables); err != nil {
			return cl, fmt.Errorf("delta log import: %w", err)
		}
		matcher := isomer.NewMatcher(fd.Global)
		if err := matcher.Adopt(fd.Databases, tables); err != nil {
			return cl, fmt.Errorf("matcher: %w", err)
		}
		cl.coord.Matcher, cl.coord.Tables, cl.coord.DeltaLog = matcher, matcher.Tables(), log
		if cl.ins, err = newInserter(fd, opts.Seed); err != nil {
			return cl, err
		}
	}
	return cl, nil
}

// close stops the coordinator's client, every server and every engine, and
// removes the WAL directory. It waits for the servers' goroutines. A second
// call does nothing.
func (cl *cluster) close() error {
	if cl.closed {
		return nil
	}
	cl.closed = true
	var errs []error
	if cl.coord != nil {
		cl.coord.Close()
	}
	for _, srv := range cl.servers {
		errs = append(errs, srv.Close())
	}
	for _, c := range cl.closers {
		errs = append(errs, c())
	}
	if cl.walDir != "" {
		errs = append(errs, os.RemoveAll(cl.walDir))
	}
	return errors.Join(errs...)
}

// regSnap is a point-in-time copy of the cluster's registries, coordinator
// first. The registries stay apart because both ends of a coordinator-site
// exchange count its bytes under the same labels.
type regSnap []metrics.Snapshot

func (cl *cluster) snapshot() regSnap {
	out := make(regSnap, len(cl.regs))
	for i, reg := range cl.regs {
		out[i] = reg.Snapshot()
	}
	return out
}

// since returns the registries' growth since prev.
func (cl *cluster) since(prev regSnap) regSnap {
	out := make(regSnap, len(cl.regs))
	for i, reg := range cl.regs {
		out[i] = reg.Delta(prev[i])
	}
	return out
}

// sum totals a counter over every registry and label set.
func (d regSnap) sum(name string) float64 {
	var t int64
	for _, s := range d {
		t += s.Sum(name)
	}
	return float64(t)
}

// histSum totals a histogram's observed values over every registry.
func (d regSnap) histSum(name string) float64 {
	var t float64
	for _, s := range d {
		_, sum := s.HistTotals(name)
		t += sum
	}
	return t
}

// netBytes is the wire traffic of the window: everything the coordinator
// saw in either direction plus the site-to-site check traffic, each byte
// once.
func (d regSnap) netBytes() float64 {
	t := d[0].Sum("net_bytes_total")
	for _, s := range d[1:] {
		for _, smp := range s.Samples {
			if smp.Name == "net_bytes_total" && smp.Kind == "counter" && smp.Labels.Peer != string(coordinatorID) {
				t += smp.Value
			}
		}
	}
	return float64(t)
}

// acceptsInserts reports whether answers may hold inserted entities beside
// the reference rows.
func (cl *cluster) acceptsInserts() bool { return cl.ins != nil }
