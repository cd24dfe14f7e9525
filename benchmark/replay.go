package main

import (
	"fmt"
	"sort"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
)

// replayReps is how often the replay re-enacts each variant under each
// strategy.
const replayReps = 10

// replayOut is what the step-by-step re-enactment measured.
type replayOut struct {
	// StepUs maps a step (the suffix of its federation.* metric) to one
	// sample per replayed query: the slowest site's time in that step.
	StepUs map[string][]float64
	// Counts maps a count (likewise) to its sum over one replay of every
	// variant; divide by Variants for the per-query mean. The counts are
	// exact: they repeat on every run of a seed.
	Counts   map[string]float64
	Variants int
	Queries  int
	Failed   int
	Failure  string
}

// replayer re-enacts CA, BL and PL on the in-process federation by calling
// the exported step functions of federation.Site and federation.Coordinator
// in the order package exec uses, one after another, each call wrapped in a
// benchmark-owned span. Running the steps in sequence gives each a clean
// time; the live system runs the per-site steps in parallel, so a query
// waits for the slowest site, and that is the sample kept.
type replayer struct {
	fd    *fedData
	sites map[object.SiteID]*federation.Site
	coord *federation.Coordinator
	log   *spanLog
	out   *replayOut
	// counting is set on the first repetition of a variant, the one whose
	// exact counts are recorded.
	counting bool
}

func replay(fd *fedData, log *spanLog) (*replayOut, error) {
	r := &replayer{
		fd:    fd,
		sites: make(map[object.SiteID]*federation.Site, len(fd.Sites)),
		coord: federation.NewCoordinator(coordinatorID, fd.Global, fd.Tables),
		log:   log,
		out:   &replayOut{StepUs: map[string][]float64{}, Counts: map[string]float64{}, Variants: len(fd.Bounds)},
	}
	for _, id := range fd.Sites {
		r.sites[id] = federation.NewSite(fd.Databases[id], fd.Global, fd.Tables)
	}
	for v, b := range fd.Bounds {
		for rep := 0; rep < replayReps; rep++ {
			r.counting = rep == 0
			_, err := fabric.NewReal(fabric.DefaultRates()).Run("replay", func(p fabric.Proc) {
				r.verify("CA", v, r.ca(p, b, fmt.Sprintf("ca-v%d-r%d", v, rep)))
				r.verify("BL", v, r.bl(p, b, fmt.Sprintf("bl-v%d-r%d", v, rep)))
				r.verify("PL", v, r.pl(p, b, fmt.Sprintf("pl-v%d-r%d", v, rep)))
			})
			if err != nil {
				return nil, fmt.Errorf("replay variant %d: %w", v, err)
			}
		}
	}
	return r.out, nil
}

func (r *replayer) verify(alg string, variant int, ans *federation.Answer) {
	r.out.Queries++
	if r.fd.matches(variant, ans, false) {
		return
	}
	r.out.Failed++
	if r.out.Failure == "" {
		r.out.Failure = fmt.Sprintf("replay %s variant %d: answer differs from the reference", alg, variant)
	}
}

// step runs fn under a span and returns its duration in microseconds.
func (r *replayer) step(parent int, qid, name string, fn func()) float64 {
	id := r.log.start(parent, qid, name)
	fn()
	return r.log.end(id)
}

// perSite runs fn once per site, each under its own span, and returns the
// slowest site's duration.
func (r *replayer) perSite(parent int, qid, name string, ids []object.SiteID, fn func(i int, s *federation.Site)) float64 {
	var slowest float64
	for i, id := range ids {
		if us := r.step(parent, qid, name+"@"+string(id), func() { fn(i, r.sites[id]) }); us > slowest {
			slowest = us
		}
	}
	return slowest
}

func (r *replayer) keep(stepName string, us float64) {
	r.out.StepUs[stepName] = append(r.out.StepUs[stepName], us)
}

func (r *replayer) count(name string, n int) {
	if r.counting {
		r.out.Counts[name] += float64(n)
	}
}

// checks runs every origin site's check requests at their targets and
// returns the replies, the slowest request's time and the number of items.
func (r *replayer) checks(p fabric.Proc, parent int, qid string, byOrigin []map[object.SiteID][]federation.CheckItem) ([]federation.CheckReply, float64, int) {
	var (
		replies []federation.CheckReply
		slowest float64
		items   int
	)
	for _, checks := range byOrigin {
		targets := make([]object.SiteID, 0, len(checks))
		for t := range checks {
			targets = append(targets, t)
			items += len(checks[t])
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		us := r.perSite(parent, qid, "Site.CheckAssistants", targets, func(i int, s *federation.Site) {
			replies = append(replies, s.CheckAssistants(p, checks[targets[i]]))
		})
		if us > slowest {
			slowest = us
		}
	}
	return replies, slowest, items
}

// ca is the centralized approach: O (retrieve at every involved site), I
// (materialize), P (evaluate the view).
func (r *replayer) ca(p fabric.Proc, b *query.Bound, qid string) *federation.Answer {
	root := r.log.start(0, qid, "replay:CA")
	defer r.log.end(root)
	var replies []federation.RetrieveReply
	r.keep("retrieve_us", r.perSite(root, qid, "Site.Retrieve", b.InvolvedSites(), func(_ int, s *federation.Site) {
		replies = append(replies, s.Retrieve(p, b))
	}))
	wire := 0
	for _, reply := range replies {
		wire += reply.WireSize()
	}
	r.count("retrieve_wire_bytes", wire)
	var view *federation.View
	r.keep("materialize_us", r.step(root, qid, "Coordinator.Materialize", func() { view = r.coord.Materialize(p, b, replies) }))
	var ans *federation.Answer
	r.keep("evaluate_view_us", r.step(root, qid, "Coordinator.EvaluateView", func() { ans = r.coord.EvaluateView(p, b, view) }))
	return ans
}

// bl is the basic localized approach: P then O at every root site, the
// checks at their targets, I.
func (r *replayer) bl(p fabric.Proc, b *query.Bound, qid string) *federation.Answer {
	root := r.log.start(0, qid, "replay:BL")
	defer r.log.end(root)
	var (
		results []federation.LocalResult
		pending []map[object.SiteID][]federation.CheckItem
	)
	r.keep("eval_local_us", r.perSite(root, qid, "Site.EvalLocalBasic", b.RootSites(), func(_ int, s *federation.Site) {
		res, checks := s.EvalLocalBasic(p, b, nil)
		results = append(results, res)
		pending = append(pending, checks)
	}))
	wire := 0
	undecided := map[object.GOid]bool{}
	for _, res := range results {
		wire += res.WireSize()
		for _, row := range res.Rows {
			if len(row.Unsolved) > 0 {
				undecided[row.GOid] = true
			}
		}
	}
	r.count("local_wire_bytes", wire)
	r.count("maybe_in", len(undecided))
	replies, slowest, items := r.checks(p, root, qid, pending)
	r.keep("check_bl_us", slowest)
	r.count("check_items_bl", items)
	var ans *federation.Answer
	r.keep("certify_bl_us", r.step(root, qid, "Coordinator.Certify", func() { ans = r.coord.Certify(p, b, results, replies) }))
	r.count("certified", ans.Stats.Certified)
	r.count("eliminated", ans.Stats.Eliminated)
	return ans
}

// pl is the parallel localized approach: O (navigate; the checks leave at
// once), P (evaluate what was navigated), I.
func (r *replayer) pl(p fabric.Proc, b *query.Bound, qid string) *federation.Answer {
	root := r.log.start(0, qid, "replay:PL")
	defer r.log.end(root)
	var (
		navs    []*federation.Navigation
		pending []map[object.SiteID][]federation.CheckItem
		results []federation.LocalResult
	)
	r.keep("navigate_us", r.perSite(root, qid, "Site.NavigateAll", b.RootSites(), func(_ int, s *federation.Site) {
		nav, checks := s.NavigateAll(p, b, nil)
		navs = append(navs, nav)
		pending = append(pending, checks)
	}))
	replies, slowest, items := r.checks(p, root, qid, pending)
	r.keep("check_pl_us", slowest)
	r.count("check_items_pl", items)
	r.keep("eval_navigated_us", r.perSite(root, qid, "Site.EvalNavigated", b.RootSites(), func(i int, s *federation.Site) {
		results = append(results, s.EvalNavigated(p, b, navs[i]))
	}))
	var ans *federation.Answer
	r.keep("certify_pl_us", r.step(root, qid, "Coordinator.Certify", func() { ans = r.coord.Certify(p, b, results, replies) }))
	return ans
}
