package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The benchmark's machine is a few cores of a shared host whose speed moves
// by a quarter and more over minutes, with every strategy, the throughput
// and the set-up time moving together (README, Steadiness). A statistic of
// one run cannot remove that, so the benchmark measures it: between queries
// the generator runs five small fixed kernels, each stressing another part
// of the machine, and the speed index is the geometric mean of their median
// times over their times on the reference machine. End-to-end times are
// divided by the index of their own stretch of the run.
//
// The kernels touch no code of the program, allocate nothing and run on the
// generator's goroutine while it has no query outstanding, so a change to
// the program cannot move them.

// kernel is one fixed piece of work and its median time on the reference
// machine: the builder's 2-vCPU box in its usual state.
type kernel struct {
	name  string
	refMs float64
	run   func(*calibrator)
}

var kernels = []kernel{
	{"alu", 0.56, (*calibrator).alu},
	{"mem", 0.67, (*calibrator).mem},
	{"sortmap", 0.74, (*calibrator).sortMap},
	{"syscall", 0.61, (*calibrator).syscalls},
	{"tcp", 0.62, (*calibrator).tcp},
}

// calEvery is how much load the generator applies between two rounds of the
// kernels; a round takes about 3 ms.
const calEvery = 100 * time.Millisecond

// calibrator owns the kernels' buffers and connections. It is built once per
// process, before anything is timed.
type calibrator struct {
	buf   []byte         // alu: hashed front to back
	chase []int32        // mem: one random cycle through 8 MiB
	ints  []int          // sortmap: refilled and sorted
	table map[string]int // sortmap: looked up by every key
	keys  []string
	fds   [2]int // syscall: a socket pair written and read in turn
	conn  net.Conn
	ln    net.Listener
	sink  int
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{
		buf:   make([]byte, 384<<10),
		ints:  make([]int, 4096),
		table: make(map[string]int, 2000),
	}
	for i := range c.buf {
		c.buf[i] = byte(i * 131)
	}
	for i := 0; i < 2000; i++ {
		c.table[fmt.Sprintf("key-%d", i)] = i
		c.keys = append(c.keys, fmt.Sprintf("key-%d", (i*7)%2000))
	}

	// One cycle through every slot in a fixed pseudo-random order, so that
	// each step is a cache miss the prefetcher cannot guess.
	n := 2 << 20
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	x := uint32(12345)
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	c.chase = make([]int32, n)
	for i := 0; i < n; i++ {
		c.chase[order[i]] = order[(i+1)%n]
	}

	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("calibrator: socketpair: %w", err)
	}
	c.fds = fds

	// An echo goroutine behind a loopback TCP connection: the round trip
	// crosses the netpoller and wakes a goroutine at each end, as an RPC does.
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		c.close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	go func() {
		peer, err := c.ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var b [64]byte
		for {
			if _, err := peer.Read(b[:]); err != nil {
				return
			}
			if _, err := peer.Write(b[:]); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", c.ln.Addr().String()); err != nil {
		c.close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return c, nil
}

func (c *calibrator) close() {
	if c.conn != nil {
		c.conn.Close() // ends the echo goroutine
	}
	if c.ln != nil {
		c.ln.Close()
	}
	syscall.Close(c.fds[0])
	syscall.Close(c.fds[1])
}

// alu is a chain of dependent multiplications: FNV-1a over the buffer.
func (c *calibrator) alu() {
	h := uint64(14695981039346656037)
	for _, b := range c.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	c.sink += int(h)
}

// mem follows the cycle: memory latency, one miss per step.
func (c *calibrator) mem() {
	p := int32(c.sink & 1023)
	for i := 0; i < 2500; i++ {
		p = c.chase[p]
	}
	c.sink += int(p)
}

// sortMap sorts 4096 fresh integers and looks 2000 strings up in a map:
// branchy, cache-resident user code.
func (c *calibrator) sortMap() {
	x := uint32(99)
	for r := 0; r < 2; r++ {
		for i := range c.ints {
			x = x*1664525 + 1013904223
			c.ints[i] = int(x >> 4)
		}
		sort.Ints(c.ints)
		for _, k := range c.keys {
			c.sink += c.table[k]
		}
	}
}

// syscalls writes and reads 64 bytes through the socket pair: the kernel's
// entry, socket and copy paths without a second thread.
func (c *calibrator) syscalls() {
	var b [64]byte
	for i := 0; i < 500; i++ {
		syscall.Write(c.fds[0], b[:])
		syscall.Read(c.fds[1], b[:])
	}
}

// tcp sends 64 bytes to the echo goroutine and waits for them to come back.
func (c *calibrator) tcp() {
	var b [64]byte
	for i := 0; i < 50; i++ {
		c.conn.Write(b[:])
		c.conn.Read(b[:])
	}
}

// calSamples holds the kernels' times over one stretch of a run.
type calSamples struct {
	ms    [][]float64 // per kernel
	spent time.Duration
}

// round runs every kernel once and records its time.
func (s *calSamples) round(c *calibrator) {
	if s.ms == nil {
		s.ms = make([][]float64, len(kernels))
	}
	t0 := time.Now()
	for k := range kernels {
		k0 := time.Now()
		kernels[k].run(c)
		s.ms[k] = append(s.ms[k], float64(time.Since(k0).Nanoseconds())/1e6)
	}
	s.spent += time.Since(t0)
}

// rounds is the number of rounds recorded.
func (s *calSamples) rounds() int {
	if s.ms == nil {
		return 0
	}
	return len(s.ms[0])
}

// index is the machine's slowness over the stretch relative to the reference
// machine: the geometric mean over the kernels of median time over reference
// time. Above 1 the machine ran slower than the reference. It is 1 when
// nothing was recorded.
func (s *calSamples) index() float64 {
	if s.rounds() == 0 {
		return 1
	}
	var sum float64
	for k := range kernels {
		sum += math.Log(median(s.ms[k]) / kernels[k].refMs)
	}
	return math.Exp(sum / float64(len(kernels)))
}

// describe lists each kernel's median time beside its reference time.
func (s *calSamples) describe() string {
	if s.rounds() == 0 {
		return "no calibration"
	}
	var b strings.Builder
	for k := range kernels {
		fmt.Fprintf(&b, " %s %.3f/%.2f", kernels[k].name, median(s.ms[k]), kernels[k].refMs)
	}
	return fmt.Sprintf("%d rounds, median/reference ms:%s", s.rounds(), b.String())
}
