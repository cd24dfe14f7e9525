package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/object"
)

// blockSpec describes one stretch of load against a cluster. Queries are
// closed loop: each client sends its next query only after the previous
// answer arrived, as an application calling a federation coordinator does.
// Inserts are paced on a fixed schedule and timed from their due time.
type blockSpec struct {
	// Clients is the number of query generators; 0 runs the writer alone.
	Clients int
	// Algs is the strategy rotation of the query generators.
	Algs []exec.Algorithm
	// Writer adds the paced insert generator (durable clusters only).
	Writer bool
	Dur    time.Duration
	// Cal, when set on a block with one query generator, makes the generator
	// run the calibration kernels every calEvery, between two passes through
	// the rotation.
	Cal *calibrator
}

// blockResult holds every sample of a block. Failed operations are counted
// and excluded from the latency samples.
type blockResult struct {
	// LatMs holds successful query latencies per strategy, indexed like the
	// strategies slice.
	LatMs [3][]float64
	// InsertMs are insert latencies measured from each insert's due time;
	// LateMs is how late after its due time each insert was sent.
	InsertMs []float64
	LateMs   []float64

	// Cal holds the calibration kernels' times over the block.
	Cal calSamples
	// RoundMs, on a block with one query generator, is the time of each
	// complete pass through the strategy rotation, from the start of its
	// first query to the checked answer of its last. Calibration happens
	// between passes only.
	RoundMs   []float64
	roundSize int

	Attempted int
	Failed    int
	Wall      time.Duration
	// FirstFailure describes the first failed operation, for diagnostics.
	FirstFailure string
}

// tally counts one generator's operations and keeps its first failure.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.first == "" {
		t.first = msg
	}
}

func (r *blockResult) add(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if r.FirstFailure == "" {
		r.FirstFailure = t.first
	}
}

// queries is the number of successful queries.
func (r *blockResult) queries() int {
	return len(r.LatMs[0]) + len(r.LatMs[1]) + len(r.LatMs[2])
}

// qps is successful queries per second of wall time.
func (r *blockResult) qps() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.queries()) / r.Wall.Seconds()
}

// typicalRate is queries per second at the median pace: the rotation's
// length over the median time of one pass through it. Unlike qps it is not
// a mean, so the shared host's scheduling stalls, which lengthen a few
// passes a lot, do not move it.
func (r *blockResult) typicalRate() float64 {
	if len(r.RoundMs) == 0 {
		return 0
	}
	return float64(r.roundSize) * 1e3 / percentile(r.RoundMs, 50)
}

func stratIndex(a exec.Algorithm) int {
	for i, s := range strategies {
		if s == a {
			return i
		}
	}
	panic(fmt.Sprintf("strategy %v is not in the rotation", a))
}

// runBlock drives the cluster for spec.Dur and checks every answer against
// its reference.
func runBlock(cl *cluster, spec blockSpec) (*blockResult, error) {
	if spec.Writer && cl.ins == nil {
		return nil, fmt.Errorf("block wants a writer but the cluster is not durable")
	}
	var (
		res      blockResult
		mu       sync.Mutex // guards res while the generators run
		nextOp   atomic.Int64
		wg       sync.WaitGroup
		start    = time.Now()
		deadline = start.Add(spec.Dur)
	)
	single := spec.Clients == 1
	res.roundSize = len(spec.Algs)
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				local      [3][]float64
				t          tally
				cal        calSamples
				lastCal    time.Time
				rounds     []float64
				roundStart time.Time
				roundOK    bool
			)
			for time.Now().Before(deadline) {
				i := int(nextOp.Add(1) - 1)
				first, last := single && i%len(spec.Algs) == 0, single && (i+1)%len(spec.Algs) == 0
				if first && spec.Cal != nil && time.Since(lastCal) >= calEvery {
					cal.round(spec.Cal)
					lastCal = time.Now()
				}
				variant, alg := cl.fd.op(i, spec.Clients, spec.Algs)
				t0 := time.Now()
				if first {
					roundStart, roundOK = t0, true
				}
				ans, _, err := cl.coord.QueryContext(context.Background(), cl.fd.Queries[variant], alg)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				t.attempted++
				switch {
				case err != nil:
					t.fail(fmt.Sprintf("%v variant %d: %v", alg, variant, err))
					roundOK = false
				case !cl.fd.matches(variant, ans, cl.acceptsInserts()):
					t.fail(fmt.Sprintf("%v variant %d: answer differs from the reference (certain %d, maybe %d, degraded %v)",
						alg, variant, len(ans.Certain), len(ans.Maybe), ans.Degraded))
					roundOK = false
				default:
					k := stratIndex(alg)
					local[k] = append(local[k], ms)
				}
				if last && roundOK {
					rounds = append(rounds, float64(time.Since(roundStart).Nanoseconds())/1e6)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range local {
				res.LatMs[i] = append(res.LatMs[i], local[i]...)
			}
			if single {
				res.Cal, res.RoundMs = cal, rounds
			}
			res.add(t)
		}()
	}
	if spec.Writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			lat, late := paced(start, time.Second/insertRate, spec.Dur, time.Now, time.Sleep, func(int) bool {
				site, o := cl.ins.next()
				t.attempted++
				goid, err := cl.coord.Insert(site, o)
				if err != nil {
					t.fail(fmt.Sprintf("insert %s at %s: %v", o.LOid, site, err))
					return false
				}
				cl.acked[goid] = true
				return true
			})
			mu.Lock()
			defer mu.Unlock()
			res.InsertMs, res.LateMs = lat, late
			res.add(t)
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	if spec.Writer {
		t := tally{attempted: 1}
		if err := cl.verifyInserts(); err != nil {
			t.fail(err.Error())
		}
		res.add(t)
	}
	return &res, nil
}

// paced runs op on a fixed schedule: operation i is due at start+i*period,
// for every due time before start+dur. An operation is never sent early; if
// the previous one is still running at its due time it is sent late, and
// its latency still counts from the due time, so a stall shows in every
// operation it delays. It returns, in milliseconds, the latency of each
// operation that succeeded and the lateness of every operation. now and
// sleep are the clock, injectable for tests.
func paced(start time.Time, period, dur time.Duration, now func() time.Time, sleep func(time.Duration), op func(i int) bool) (latMs, lateMs []float64) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(start.Add(dur)) {
			return latMs, lateMs
		}
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		sent := now()
		if op(i) {
			latMs = append(latMs, float64(now().Sub(due).Nanoseconds())/1e6)
		}
		lateMs = append(lateMs, float64(sent.Sub(due).Nanoseconds())/1e6)
	}
}

// verifyInserts asks the cluster for every object with an inserted key and
// requires exactly the acknowledged inserts back, all certain: the key is
// held at every site, so nothing about them is missing.
func (cl *cluster) verifyInserts() error {
	key := cl.ins.keyAttr
	text := fmt.Sprintf("select %s from %s where %s >= %d", key, cl.ins.root, key, insertKeyBase)
	ans, _, err := cl.coord.Query(text, exec.BL)
	if err != nil {
		return fmt.Errorf("insert verification query: %w", err)
	}
	if ans.Degraded || len(ans.Maybe) != 0 {
		return fmt.Errorf("insert verification: degraded %v, %d maybe rows", ans.Degraded, len(ans.Maybe))
	}
	got := make(map[object.GOid]bool, len(ans.Certain))
	for _, g := range ans.CertainGOids() {
		got[g] = true
	}
	if len(got) != len(cl.acked) {
		return fmt.Errorf("insert verification: %d rows for %d acknowledged inserts", len(got), len(cl.acked))
	}
	for g := range cl.acked {
		if !got[g] {
			return fmt.Errorf("insert verification: acknowledged insert %s is not in the answer", g)
		}
	}
	return nil
}

// warmup runs a fixed number of rotation queries, checking each answer. It
// belongs to set-up: connections are dialed, codec types registered and the
// heap grown before any window opens.
func warmup(cl *cluster, queries int) error {
	for i := 0; i < queries; i++ {
		variant, alg := cl.fd.op(i, 1, strategies)
		ans, _, err := cl.coord.Query(cl.fd.Queries[variant], alg)
		if err != nil {
			return fmt.Errorf("warm-up %v variant %d: %w", alg, variant, err)
		}
		if !cl.fd.matches(variant, ans, cl.acceptsInserts()) {
			return fmt.Errorf("warm-up %v variant %d: answer differs from the reference", alg, variant)
		}
	}
	return nil
}
