package antientropy

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
)

// The replica protocol under a deterministic network: 3–7 Replicas — the
// mapping authority G and its sites — exchange messages through a Send that
// delivers, drops and duplicates them on one goroutine, driven by a schedule
// of inserts, rounds, pings, partitions, heals, kills, restarts from the
// logged bindings and planted conflicts that one seed draws. After every step
// it checks four safety properties:
//
//  1. no replica holds two LOids for one (GOid, site), nor one (site, LOid)
//     under two GOids;
//  2. a binding once held is never lost, so a refused conflict is never
//     overwritten;
//  3. a suspect mark clears only in a round of that replica that reached a
//     quorum of its peers and converged the class with a majority of them;
//  4. a site that lacks a binding whose push to it failed stays marked stale
//     at the authority (a restarted authority forgets its marks, and the
//     check with them).
//
// and, after the schedule, one liveness property: once every link is healed
// and every replica is back, every digest is equal within five rounds, on
// every class no conflict was planted in, and no replica suspects one.

var (
	seedFlag  = flag.Uint64("seed", 0, "replay the one schedule TestReplicaNetwork draws from this seed")
	seedsFlag = flag.Int("seeds", 0, "how many seeds TestReplicaNetwork sweeps (0: 10 000, 1 000 under the race detector)")
)

type op int

const (
	opInsert    op = iota // G binds a new object at site a and pushes the binding to every site
	opRound               // replica a runs a round against its peers
	opPing                // G syncs every stale site it reaches
	opPartition           // the links between the replicas in mask a and the rest are cut
	opHeal                // every link is restored
	opKill                // replica a stops
	opRestart             // replica a (re)starts from its logged bindings
	opConflict            // replica a binds the last inserted object under a fresh GOid
)

// step is one schedule step. Its message faults come from its own stream, so
// dropping other steps leaves them as they were.
type step struct {
	op        op
	a         int
	class     string // opInsert
	drop, dup int    // percent of the step's messages (and replies) lost, delivered twice
	faults    uint64
}

type schedule struct {
	seed  uint64
	n     int // replicas: G and n-1 sites
	steps []step
}

var netClasses = []string{"Student", "Teacher"}

// draw is the schedule of a seed.
func draw(seed uint64) schedule {
	rng := rand.New(rand.NewPCG(seed, 0))
	s := schedule{seed: seed, n: 3 + rng.IntN(5)}
	for range 40 {
		st := step{faults: rng.Uint64()}
		switch p := rng.IntN(100); {
		case p < 30:
			st.op, st.a, st.class = opInsert, 1+rng.IntN(s.n-1), netClasses[rng.IntN(len(netClasses))]
		case p < 50:
			st.op, st.a = opRound, rng.IntN(s.n)
		case p < 58:
			st.op = opPing
		case p < 66:
			st.op, st.a = opPartition, rng.IntN(1<<s.n)
		case p < 74:
			st.op = opHeal
		case p < 82:
			st.op, st.a = opKill, rng.IntN(s.n)
		case p < 94:
			st.op, st.a = opRestart, rng.IntN(s.n)
		default:
			st.op, st.a = opConflict, rng.IntN(s.n)
		}
		if rng.IntN(3) == 0 {
			st.drop = []int{25, 50, 100}[rng.IntN(3)]
		}
		if rng.IntN(4) == 0 {
			st.dup = 50
		}
		s.steps = append(s.steps, st)
	}
	return s
}

func siteName(i int) object.SiteID {
	if i == 0 {
		return "G"
	}
	return object.SiteID(fmt.Sprintf("DB%d", i))
}

func (st step) String() string {
	var b strings.Builder
	switch st.op {
	case opInsert:
		fmt.Fprintf(&b, "insert %s@%s", st.class, siteName(st.a))
	case opRound:
		fmt.Fprintf(&b, "round %s", siteName(st.a))
	case opPing:
		b.WriteString("ping")
	case opPartition:
		b.WriteString("partition")
		for i := range 8 {
			if st.a&(1<<i) != 0 {
				fmt.Fprintf(&b, " %s", siteName(i))
			}
		}
	case opHeal:
		b.WriteString("heal")
	case opKill:
		fmt.Fprintf(&b, "kill %s", siteName(st.a))
	case opRestart:
		fmt.Fprintf(&b, "restart %s", siteName(st.a))
	case opConflict:
		fmt.Fprintf(&b, "conflict %s", siteName(st.a))
	}
	if st.drop > 0 {
		fmt.Fprintf(&b, " drop=%d%%", st.drop)
	}
	if st.dup > 0 {
		fmt.Fprintf(&b, " dup=%d%%", st.dup)
	}
	return b.String()
}

// memLog is a replica's durable log: it outlives the replica's process.
type memLog []logged

type logged struct {
	class string
	Binding
}

func (l *memLog) LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error {
	*l = append(*l, logged{class, Binding{goid, site, loid}})
	return nil
}

var errLost = errors.New("message lost")

// network runs one schedule.
type network struct {
	n      int
	ids    []object.SiteID
	reps   []*Replica
	tables []*gmap.Tables
	state  []*sync.RWMutex
	logs   []*memLog
	alive  []bool
	cut    map[[2]int]bool

	faults    *rand.Rand // the current step's message faults
	drop, dup int
	minted    int
	last      map[string]Binding // per class, the last inserted binding

	held       [][]logged        // what each replica held after the last step
	missed     []map[logged]bool // per site: bindings whose push to it failed
	conflicted map[string]bool   // classes a conflict was planted in
	round      *roundSeen        // the round being run, as the network saw it
}

// roundSeen is what one round's messages met on the wire: the digests that
// were answered, and per class the peers its repair did not converge with.
type roundSeen struct {
	who      int
	reached  int
	disagree map[string]int
}

func newNetwork(n int) *network {
	net := &network{n: n, reps: make([]*Replica, n), tables: make([]*gmap.Tables, n), state: make([]*sync.RWMutex, n),
		logs: make([]*memLog, n), alive: make([]bool, n), cut: map[[2]int]bool{}, last: map[string]Binding{},
		held: make([][]logged, n), missed: make([]map[logged]bool, n), conflicted: map[string]bool{}}
	for i := range n {
		net.ids = append(net.ids, siteName(i))
		net.logs[i], net.missed[i] = new(memLog), map[logged]bool{}
		net.start(i)
	}
	return net
}

// start (re)starts replica i over the tables its log recovers.
func (net *network) start(i int) {
	tables := gmap.NewTables()
	for _, e := range *net.logs[i] {
		_ = tables.Table(e.class).Bind(e.GOid, e.Site, e.LOid)
	}
	net.tables[i], net.state[i], net.alive[i] = tables, new(sync.RWMutex), true
	net.reps[i] = NewReplica(siteName(i), tables, net.state[i], net.logs[i], net.sender(i), nil, nil)
	if i == 0 {
		for p := range net.missed {
			net.missed[p] = map[logged]bool{}
		}
	}
}

// peers are a replica's peers: every site for G, the other sites for a site.
func (net *network) peers(i int) []object.SiteID {
	var out []object.SiteID
	for p := 1; p < net.n; p++ {
		if p != i {
			out = append(out, siteName(p))
		}
	}
	return out
}

func (net *network) linked(a, b int) bool {
	return net.alive[a] && net.alive[b] && !net.cut[[2]int{min(a, b), max(a, b)}]
}

func (net *network) lost() bool { return net.drop > 0 && net.faults.IntN(100) < net.drop }

// sender is replica from's Send: a message reaches a live peer across an
// uncut link unless the step drops it, may be delivered twice, and its reply
// may be dropped in turn.
func (net *network) sender(from int) Send {
	return func(_ context.Context, peer object.SiteID, m Msg) (Reply, int64, error) {
		to := slices.Index(net.ids, peer)
		reply, err := Reply{}, errLost
		if net.linked(from, to) && !net.lost() {
			reply, err = net.reps[to].Handle(siteName(from), m)
			if net.dup > 0 && net.faults.IntN(100) < net.dup {
				reply, err = net.reps[to].Handle(siteName(from), m)
			}
			if net.lost() {
				reply, err = Reply{}, errLost
			}
		}
		if seen := net.round; seen != nil && seen.who == from {
			switch {
			case m.Kind == KindDigest && err == nil:
				seen.reached++
			case m.Kind == KindRepair && (err != nil || reply.Repair.Conflicts > 0 ||
				net.conflicts(from, m.Repair.Class, reply.Repair.Bindings)):
				seen.disagree[m.Repair.Class]++
			}
		}
		return reply, 0, err
	}
}

// conflicts reports whether replica i would refuse one of bs.
func (net *network) conflicts(i int, class string, bs []Binding) bool {
	t := net.tables[i].Table(class)
	for _, b := range bs {
		if g, ok := t.GOidOf(b.Site, b.LOid); ok && g != b.GOid {
			return true
		}
		if l, ok := t.LOidAt(b.GOid, b.Site); ok && l != b.LOid {
			return true
		}
	}
	return false
}

// coverage counts what a sweep's schedules exercised.
type coverage struct {
	staleMarks, suspectsCleared, conflicts, restarts int
}

// do runs one step.
func (net *network) do(st step, cov *coverage) {
	net.faults = rand.New(rand.NewPCG(st.faults, 1))
	net.drop, net.dup = st.drop, st.dup
	ctx := context.Background()
	switch st.op {
	case opInsert:
		if !net.linked(0, st.a) {
			return // the object could not be stored at its site
		}
		net.minted++
		b := Binding{object.GOid(fmt.Sprintf("g%d", net.minted)), siteName(st.a), object.LOid(fmt.Sprintf("o%d", net.minted))}
		if prev, ok := net.last[st.class]; ok && net.faults.IntN(3) == 0 {
			if _, bound := net.tables[0].Table(st.class).LOidAt(prev.GOid, b.Site); !bound {
				b.GOid = prev.GOid // an isomer of the last object inserted
			}
		}
		net.state[0].Lock()
		_, err := net.reps[0].Apply(st.class, b)
		net.state[0].Unlock()
		if err != nil {
			panic(fmt.Sprintf("the authority refused its own binding: %v", err))
		}
		net.last[st.class] = b
		for p := 1; p < net.n; p++ {
			if net.reps[0].Push(ctx, siteName(p), &Delta{st.class, b.GOid, b.Site, b.LOid}) != nil {
				net.missed[p][logged{st.class, b}] = true
				cov.staleMarks++
			}
		}
	case opRound:
		if net.alive[st.a] {
			net.round = &roundSeen{who: st.a, disagree: map[string]int{}}
			net.reps[st.a].Round(ctx, net.peers(st.a))
		}
	case opPing:
		for p := 1; p < net.n; p++ {
			if net.linked(0, p) {
				net.reps[0].Sync(ctx, siteName(p))
			}
		}
	case opPartition:
		for a := range net.n {
			for b := a + 1; b < net.n; b++ {
				if (st.a>>a)&1 != (st.a>>b)&1 {
					net.cut[[2]int{a, b}] = true
				}
			}
		}
	case opHeal:
		net.cut = map[[2]int]bool{}
	case opKill:
		net.alive[st.a] = false
	case opRestart:
		net.start(st.a)
		cov.restarts++
	case opConflict:
		class := netClasses[st.a%len(netClasses)]
		b, ok := net.last[class]
		if !ok || !net.alive[st.a] {
			return
		}
		net.minted++
		net.state[st.a].Lock()
		ok, _ = net.reps[st.a].Apply(class, Binding{object.GOid(fmt.Sprintf("c%d", net.minted)), b.Site, b.LOid})
		net.state[st.a].Unlock()
		if ok {
			net.conflicted[class] = true
			cov.conflicts++
		}
	}
}

// check holds the replicas to the four safety properties after st, given
// the suspect marks each held before it.
func (net *network) check(st step, before [][]string, cov *coverage) error {
	seen := net.round
	net.round = nil
	for i := range net.n {
		if !net.alive[i] {
			continue
		}
		tables, bindings := net.tables[i], 0
		for _, b := range net.held[i] {
			if !tables.Table(b.class).Bound(b.GOid, b.Site, b.LOid) {
				return fmt.Errorf("%s lost %s: %s→%s@%s", siteName(i), b.class, b.GOid, b.LOid, b.Site)
			}
		}
		for _, class := range tables.Classes() {
			bindings += tables.Table(class).Bindings()
		}
		// Nothing was lost, so an unchanged count is an unchanged table.
		if bindings != len(net.held[i]) {
			if err := net.hold(i); err != nil {
				return err
			}
		}

		if st.op == opRestart && st.a == i {
			continue // a new process starts without marks
		}
		after := net.reps[i].Suspects()
		for _, class := range before[i] {
			if slices.Contains(after, class) {
				continue
			}
			peers := len(net.peers(i))
			if st.op != opRound || st.a != i || seen.reached == 0 || 2*seen.reached < peers || 2*seen.disagree[class] > seen.reached {
				return fmt.Errorf("%s cleared its suspect mark on %s without a clean quorum round", siteName(i), class)
			}
			cov.suspectsCleared++
		}
	}
	if !net.alive[0] {
		return nil
	}
	for p := 1; p < net.n; p++ {
		for b := range net.missed[p] {
			if net.tables[p].Table(b.class).Bound(b.GOid, b.Site, b.LOid) {
				delete(net.missed[p], b)
			}
		}
		if len(net.missed[p]) > 0 && !net.reps[0].Stale(siteName(p)) {
			return fmt.Errorf("%s lacks %d binding(s) whose push failed and is not marked stale", siteName(p), len(net.missed[p]))
		}
	}
	return nil
}

// hold records what replica i holds, checking that no (GOid, site) has two
// LOids and no (site, LOid) two GOids.
func (net *network) hold(i int) error {
	net.held[i] = net.held[i][:0]
	for _, class := range net.tables[i].Classes() {
		t := net.tables[i].Table(class)
		owner := map[[2]string]object.GOid{}
		for _, goid := range t.GOids() {
			sites := map[object.SiteID]bool{}
			for _, loc := range t.Locations(goid) {
				if sites[loc.Site] {
					return fmt.Errorf("%s holds two LOids for (%s, %s)", siteName(i), goid, loc.Site)
				}
				sites[loc.Site] = true
				key := [2]string{string(loc.Site), string(loc.LOid)}
				if g, ok := owner[key]; ok {
					return fmt.Errorf("%s holds %s@%s under %s and %s", siteName(i), loc.LOid, loc.Site, g, goid)
				}
				owner[key] = goid
				net.held[i] = append(net.held[i], logged{class, Binding{goid, loc.Site, loc.LOid}})
			}
		}
	}
	return nil
}

// run plays the schedule and returns the first property it breaks. trace,
// when non-nil, receives each step as it runs.
func (s schedule) run(cov *coverage, trace func(string)) error {
	net := newNetwork(s.n)
	play := func(k int, st step) error {
		before := make([][]string, s.n)
		for i := range s.n {
			before[i] = net.reps[i].Suspects()
		}
		net.do(st, cov)
		if trace != nil {
			trace(fmt.Sprintf("%3d %s", k, st))
		}
		if err := net.check(st, before, cov); err != nil {
			if k == len(s.steps) {
				return fmt.Errorf("after the schedule (%s): %w", st, err)
			}
			return fmt.Errorf("step %d (%s): %w", k, st, err)
		}
		return nil
	}
	for k, st := range s.steps {
		if err := play(k, st); err != nil {
			return err
		}
	}

	// The last heal: every link back, every replica up, no message faults.
	net.cut = map[[2]int]bool{}
	for i := range s.n {
		if !net.alive[i] {
			if err := play(len(s.steps), step{op: opRestart, a: i}); err != nil {
				return err
			}
		}
	}
	for rounds := 1; ; rounds++ {
		for i := 1; i <= s.n; i++ {
			if err := play(len(s.steps), step{op: opRound, a: i % s.n}); err != nil {
				return err
			}
		}
		if err := net.converged(); err == nil {
			break
		} else if rounds == 5 {
			return fmt.Errorf("after the last heal and %d rounds: %w", rounds, err)
		}
	}
	return nil
}

// converged reports a replica whose digest or suspect marks still differ on
// a class no conflict was planted in.
func (net *network) converged() error {
	for _, class := range netClasses {
		if net.conflicted[class] {
			continue
		}
		for i := range net.n {
			if d := net.reps[i].Digest(class); d != net.reps[0].Digest(class) {
				return fmt.Errorf("%s digest of %s holds %d bindings, G's %d", class, siteName(i), d.Count, net.reps[0].Digest(class).Count)
			}
			if slices.Contains(net.reps[i].Suspects(), class) {
				return fmt.Errorf("%s still suspects %s", siteName(i), class)
			}
		}
	}
	return nil
}

// shrink drops steps, one at a time and greedily, while the schedule still
// breaks a property.
func shrink(s schedule) schedule {
	for i := 0; i < len(s.steps); {
		smaller := s
		smaller.steps = slices.Delete(slices.Clone(s.steps), i, i+1)
		if smaller.run(&coverage{}, nil) != nil {
			s = smaller
			continue
		}
		i++
	}
	return s
}

// TestReplicaNetwork sweeps -seeds schedules (or replays -seed). A failure
// prints the line that replays it and the schedule shrunk to the steps that
// still break the property.
func TestReplicaNetwork(t *testing.T) {
	seeds := []uint64{*seedFlag}
	if *seedFlag == 0 {
		n := *seedsFlag
		if n == 0 {
			n = 10000
			if raceEnabled {
				n = 1000
			}
		}
		seeds = seeds[:0]
		for seed := uint64(1); seed <= uint64(n); seed++ {
			seeds = append(seeds, seed)
		}
	}
	var cov coverage
	for _, seed := range seeds {
		s := draw(seed)
		var trace func(string)
		if len(seeds) == 1 {
			trace = func(line string) { t.Log(line) }
		}
		if err := s.run(&cov, trace); err != nil {
			small := shrink(s)
			var steps strings.Builder
			for _, st := range small.steps {
				fmt.Fprintf(&steps, "\n\t%s", st)
			}
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/antientropy/ -run 'TestReplicaNetwork$' -seed %d\n"+
				"shrunk to %d of %d steps over %d replicas:%s\n-> %v",
				seed, err, seed, len(small.steps), len(s.steps), s.n, steps.String(), small.run(&coverage{}, nil))
		}
	}
	t.Logf("%d schedules: %d failed pushes, %d suspect marks cleared, %d conflicts planted, %d restarts",
		len(seeds), cov.staleMarks, cov.suspectsCleared, cov.conflicts, cov.restarts)
	if len(seeds) >= 100 && (cov.staleMarks == 0 || cov.suspectsCleared == 0 || cov.conflicts == 0 || cov.restarts == 0) {
		t.Errorf("the sweep left part of the protocol unexercised: %+v", cov)
	}
}
