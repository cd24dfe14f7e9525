package fabric

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// FaultPlan injects deterministic site faults into a runtime: a site can be
// killed outright (unavailable from the start), dropped after serving a
// fixed number of operations (a mid-query crash), or delayed by a fixed
// extra latency per operation (a wedged-but-alive site). Execution
// strategies consult the plan through Proc.Faults and degrade instead of
// failing: a dead site is a coarser missingness mechanism, so the affected
// results stay maybe rather than aborting the query.
//
// The plan is safe for concurrent use (the real runtime evaluates site
// steps on goroutines) and deterministic: the same plan against the same
// workload produces the same degraded answer.
type FaultPlan struct {
	mu      sync.Mutex
	killed  map[object.SiteID]bool
	dropAt  map[object.SiteID]int // ops remaining before the site goes dark
	served  map[object.SiteID]int
	delayUS map[object.SiteID]float64

	// Link-level faults (partition.go): the directed edges cut.
	links map[Pair]bool
}

// NewFaultPlan returns an empty plan (no faults).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{
		killed:  make(map[object.SiteID]bool),
		dropAt:  make(map[object.SiteID]int),
		served:  make(map[object.SiteID]int),
		delayUS: make(map[object.SiteID]float64),
		links:   make(map[Pair]bool),
	}
}

// Kill marks the site dead for the whole execution.
func (f *FaultPlan) Kill(site object.SiteID) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killed[site] = true
	return f
}

// DropAfter lets the site serve n operations, then kills it: operation
// n+1 and later find the site unavailable.
func (f *FaultPlan) DropAfter(site object.SiteID, n int) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropAt[site] = n
	return f
}

// Delay adds the given extra latency (µs) to every operation served by the
// site.
func (f *FaultPlan) Delay(site object.SiteID, micros float64) *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delayUS[site] = micros
	return f
}

// BeginOp records one operation against the site and reports whether the
// site is still alive to serve it. A nil plan always reports alive.
func (f *FaultPlan) BeginOp(site object.SiteID) bool {
	if f == nil {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed[site] {
		return false
	}
	if limit, ok := f.dropAt[site]; ok {
		if f.served[site] >= limit {
			return false
		}
		f.served[site]++
	}
	return true
}

// DelayMicros returns the extra per-operation latency injected at the site
// (0 without a fault). A nil plan returns 0.
func (f *FaultPlan) DelayMicros(site object.SiteID) float64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delayUS[site]
}

// Reason describes the site's fault for degradation reports.
func (f *FaultPlan) Reason(site object.SiteID) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.killed[site]:
		return "injected fault: site killed"
	case hasKey(f.dropAt, site) && f.served[site] >= f.dropAt[site]:
		return fmt.Sprintf("injected fault: site dropped after %d operations", f.dropAt[site])
	default:
		return ""
	}
}

func hasKey(m map[object.SiteID]int, k object.SiteID) bool {
	_, ok := m[k]
	return ok
}

// String renders the plan for logs and flags.
func (f *FaultPlan) String() string {
	if f == nil {
		return "none"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var parts []string
	for site := range f.killed {
		parts = append(parts, fmt.Sprintf("kill(%s)", site))
	}
	for site, n := range f.dropAt {
		parts = append(parts, fmt.Sprintf("drop(%s,%d)", site, n))
	}
	for site, d := range f.delayUS {
		parts = append(parts, fmt.Sprintf("delay(%s,%gµs)", site, d))
	}
	for pair := range f.links {
		parts = append(parts, fmt.Sprintf("droplink(%s→%s)", pair.From, pair.To))
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// ParseFaults compiles a fault spec — the one grammar hetbench's cells,
// hetql -fault and hetserve -fault share — into a plan factory. Each call of
// the factory yields a fresh plan, so drop-after budgets restart per consumer
// (per query on the sim runtime, once per server on the live one); it yields
// nil when the spec names no fault. A spec is comma-separated terms:
//
//	none                no faults
//	kill:SITE           SITE is dead for the whole run
//	drop:SITE:N         SITE serves N operations, then goes dark
//	delay:SITE:AMOUNT   every operation at SITE stalls by AMOUNT, a finite
//	                    duration (5ms) or number of microseconds (1500)
//	cut:SITE            the links between self and SITE are cut, both ways
//
// self names the process the plan is installed in: kill and delay may then
// leave SITE out ("kill", "delay:5ms") to mean self. With self empty — a plan
// installed in every site at once — those forms and cut are refused.
func ParseFaults(spec string, self object.SiteID) (func() *FaultPlan, error) {
	var terms []func(*FaultPlan)
	for _, term := range strings.Split(spec, ",") {
		if term = strings.TrimSpace(term); term == "" || term == "none" {
			continue
		}
		apply, err := parseFaultTerm(term, self)
		if err != nil {
			return nil, err
		}
		terms = append(terms, apply)
	}
	return func() *FaultPlan {
		if len(terms) == 0 {
			return nil
		}
		fp := NewFaultPlan()
		for _, apply := range terms {
			apply(fp)
		}
		return fp
	}, nil
}

func parseFaultTerm(term string, self object.SiteID) (func(*FaultPlan), error) {
	bad := fmt.Errorf("bad fault %q (want none, kill:SITE, drop:SITE:N, delay:SITE:AMOUNT or cut:SITE)", term)
	parts := strings.Split(term, ":")
	if self != "" && (term == "kill" || parts[0] == "delay" && len(parts) == 2) {
		// kill, delay:AMOUNT: the site left out is this process's.
		parts = append([]string{parts[0], string(self)}, parts[1:]...)
	}
	if len(parts) < 2 || parts[1] == "" {
		return nil, bad
	}
	site, args := object.SiteID(parts[1]), parts[2:]
	switch {
	case parts[0] == "kill" && len(args) == 0:
		return func(fp *FaultPlan) { fp.Kill(site) }, nil
	case parts[0] == "cut" && len(args) == 0 && self != "":
		return func(fp *FaultPlan) { fp.DropLink(self, site).DropLink(site, self) }, nil
	case parts[0] == "drop" && len(args) == 1:
		if n, err := strconv.Atoi(args[0]); err == nil && n >= 0 {
			return func(fp *FaultPlan) { fp.DropAfter(site, n) }, nil
		}
	case parts[0] == "delay" && len(args) == 1:
		us, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			var d time.Duration
			d, err = time.ParseDuration(args[0])
			us = float64(d) / float64(time.Microsecond)
		}
		if err == nil && us >= 0 && !math.IsInf(us, 1) {
			return func(fp *FaultPlan) { fp.Delay(site, us) }, nil
		}
	}
	return nil, bad
}
