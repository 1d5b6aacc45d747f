package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/stored"
	"dkbms/internal/workload"
)

// commit-views: the paper's update traffic plus view maintenance, on a
// file-backed database, one goroutine. Each step commits one change and
// then re-reads every memoized view, so the work sits in snapshot shadow
// copies, matview delta rules and Delete-and-Rederive, stored rule
// updates and the file pager (the event relation exceeds the buffer
// pool). The wire does none, and the plan cache only serves hits.

// cvShape sizes the commit-views D/KB.
type cvShape struct {
	depth            int
	chains, chainLen int
	// events rows of eventPayload bytes each; sized so the live pages
	// exceed the default 1024-page buffer pool.
	events, eventPayload int
	maxBatch             int
}

func cvShapeFor(cfg config) cvShape {
	if cfg.small {
		return cvShape{depth: 6, chains: 10, chainLen: 5, events: 500, eventPayload: 40, maxBatch: 8}
	}
	return cvShape{depth: 10, chains: 200, chainLen: 10, events: 40000, eventPayload: 100, maxBatch: 64}
}

// aboveRules give the views over up: above(X, W) holds for every proper
// ancestor W of X.
const aboveRules = `
above(X, Y) :- up(X, Y).
above(X, Y) :- up(X, Z), above(Z, Y).
`

// cvView is one memoized view and how the oracle answers it.
type cvView struct {
	src  string
	kind string // "descendants", "ancestors" or "level"
	node string
}

// cvBatch is one inserted batch of edges under a leaf.
type cvBatch struct {
	leaf string
	kids []string
}

type commitViews struct {
	sh    cvShape
	dir   string
	c     *dkbms.ConcurrentTestbed
	rs    int
	rng   *rand.Rand
	views []cvView
	// model is the benchmark's own copy of parent: child lists.
	model map[string][]string
	// up maps each node to its parent in the model.
	up map[string]string
	// live holds batches inserted and not yet retracted; freeLeaves the
	// leaves without a live batch.
	live       []cvBatch
	freeLeaves []string
	nextNode   int
	nextEvent  int
	nextRule   int
	// eventRows counts event rows; eventSample keeps the first few for
	// the replay probes.
	eventRows   int
	eventSample []rel.Tuple
	// programs keeps the first committed texts for the parse replay.
	programs []string
	deck     []int
	texts    map[string]bool
}

func setupCommitViews(cfg config) (instance, error) {
	sh := cvShapeFor(cfg)
	dir, err := os.MkdirTemp(cfg.dir, "commit-views-")
	if err != nil {
		return nil, err
	}
	w := &commitViews{
		sh:    sh,
		dir:   dir,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		model: make(map[string][]string),
		up:    make(map[string]string),
		texts: make(map[string]bool),
	}
	if err := w.load(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Warm-up: memoize every view (each read must be correct).
	for _, v := range w.views {
		res, err := w.c.Query(v.src, nil)
		if err == nil {
			err = w.expect(v).check(res.Rows)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", v.src, err)
		}
	}
	return w, nil
}

func (w *commitViews) load() error {
	tb, err := dkbms.Open(filepath.Join(w.dir, "dkb.db"))
	if err != nil {
		return err
	}
	parent, up, flat := treeData(w.sh.depth)
	for _, e := range parent {
		a, b := e[0].Str, e[1].Str
		w.model[a] = append(w.model[a], b)
		w.up[b] = a
	}
	events := make([]rel.Tuple, w.sh.events)
	for i := range events {
		events[i] = w.eventTuple()
	}
	w.eventRows = len(events)
	w.eventSample = events[:min(len(events), maxProbeTuples)]
	if err := loadRelations(tb, []relation{
		{"parent", parent, true}, {"up", up, true}, {"flat", flat, true}, {"event", events, false},
	}); err != nil {
		tb.Close()
		return err
	}
	rules, _, bases := workload.RuleChains(w.sh.chains, w.sh.chainLen)
	var src strings.Builder
	src.WriteString(treeRules)
	src.WriteString(aboveRules)
	for _, r := range rules {
		src.WriteString(r.String())
		src.WriteByte('\n')
	}
	for _, p := range bases {
		if err := tb.AssertTuples(p, workload.ChainFacts()); err != nil {
			tb.Close()
			return err
		}
	}
	w.rs = 6 + len(rules)
	if err := tb.Load(src.String()); err != nil {
		tb.Close()
		return err
	}
	if _, err := tb.Update(); err != nil {
		tb.Close()
		return err
	}
	w.c = dkbms.NewConcurrent(tb)

	d := w.sh.depth
	leafLo, leafHi := levelNodes(d)
	for i := leafLo; i <= leafHi; i++ {
		w.freeLeaves = append(w.freeLeaves, workload.TreeNode(i))
	}
	// Four views over parent and up: closures rooted high and low in the
	// tree, a same-generation level and a leaf's ancestor chain. Under
	// MaintAuto the closures absorb every batch incrementally while the
	// small views fall back to re-derivation past 16 delta tuples.
	node := func(i int) string { return workload.TreeNode(i) }
	w.views = []cvView{
		{fmt.Sprintf("?- ancestor(%s, W).", node(1)), "descendants", node(1)},
		{fmt.Sprintf("?- ancestor(%s, W).", node(1<<(d/2))), "descendants", node(1 << (d / 2))},
		{fmt.Sprintf("?- sg(%s, W).", node(leafLo-1)), "level", node(leafLo - 1)},
		{fmt.Sprintf("?- above(%s, W).", node(leafHi)), "ancestors", node(leafHi)},
	}
	for _, v := range w.views {
		w.texts[v.src] = true
	}
	return nil
}

// eventTuple returns a fresh event row with a seeded payload.
func (w *commitViews) eventTuple() rel.Tuple {
	w.nextEvent++
	b := make([]byte, w.sh.eventPayload)
	for i := range b {
		b[i] = byte('a' + w.rng.Intn(26))
	}
	return rel.Tuple{rel.NewString(fmt.Sprintf("e%d", w.nextEvent)), rel.NewString("p" + string(b))}
}

// expect answers a view from the model.
func (w *commitViews) expect(v cvView) answer {
	switch v.kind {
	case "descendants":
		return newAnswer(graph(w.model).reachable(v.node))
	case "ancestors":
		var out []string
		for n, ok := w.up[v.node]; ok; n, ok = w.up[n] {
			out = append(out, n)
		}
		return newAnswer(out)
	default: // level: every model node as deep as v.node
		depth := func(n string) int {
			k := 0
			for p, ok := w.up[n]; ok; p, ok = w.up[p] {
				k++
			}
			return k
		}
		want := depth(v.node)
		out := []string{}
		for n := range w.up {
			if depth(n) == want {
				out = append(out, n)
			}
		}
		if want == 0 {
			out = append(out, v.node)
		}
		return newAnswer(out)
	}
}

func (w *commitViews) close() error {
	err := w.c.Close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *commitViews) counters() counters {
	var c counters
	c.db = w.c.Testbed().DB().StatsSnapshot()
	c.pool = w.c.PagerStats()
	c.readEngine(w.c.EngineMetrics())
	c.plan = w.c.PlanStats()
	c.snap = w.c.SnapshotStats()
	c.mv = w.c.MatViewStats()
	c.sched = w.c.SchedStats()
	c.readRuntime()
	return c
}

// Step kinds. Each block of 25 steps holds, shuffled: 1 rule update,
// 8 event appends, 8 parent inserts and 8 retracts of earlier batches.
// Fixed proportions give every run the same mix. Refresh costs rank
// event < retract < insert < rule update, so the median falls in the
// middle of the retract mode (32-64%) and the p90 inside the insert
// mode (64-96%), away from the edges between modes.
const (
	stepInsert = iota
	stepRetract
	stepEvent
	stepRule
)

func (w *commitViews) nextStep() int {
	if len(w.deck) == 0 {
		for i := 0; i < 25; i++ {
			switch {
			case i == 0:
				w.deck = append(w.deck, stepRule)
			case i <= 8:
				w.deck = append(w.deck, stepEvent)
			case i <= 16:
				w.deck = append(w.deck, stepInsert)
			default:
				w.deck = append(w.deck, stepRetract)
			}
		}
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	s := w.deck[0]
	w.deck = w.deck[1:]
	if s == stepRetract && len(w.live) == 0 {
		s = stepInsert
	}
	return s
}

func (w *commitViews) run(ph *phase) error {
	ph.primary, ph.window = "refresh", 25 // one block of steps
	for !ph.done() {
		w.step(ph)
	}
	ph.distinctTexts = len(w.texts)
	return nil
}

// step makes one commit and re-reads every view. The refresh time runs
// from the start of the commit until the last view read returns; the
// oracle checks run after the clock stops.
func (w *commitViews) step(ph *phase) {
	kind := w.nextStep()
	op := ph.tr.Start("step")
	start := time.Now()
	var err error
	var class string
	switch kind {
	case stepInsert:
		class = "commit.insert"
		err = w.insert(ph, op)
	case stepRetract:
		class = "commit.retract"
		err = w.retract(ph, op)
	case stepEvent:
		class = "commit.event"
		err = w.appendEvents(ph, op)
	case stepRule:
		class = "commit.rule"
		err = w.ruleUpdate(ph, op)
	}
	op.SetString("kind", class)
	if err != nil {
		op.End()
		ph.fail("%s: %v", class, err)
		return
	}
	results := make([]*dkbms.QueryResult, len(w.views))
	errs := make([]error, len(w.views))
	lat := make([]time.Duration, len(w.views))
	for i, v := range w.views {
		sp := op.Start("plancache.read")
		t0 := time.Now()
		results[i], errs[i] = w.c.Query(v.src, nil)
		lat[i] = time.Since(t0)
		sp.End()
		if errs[i] == nil {
			w.attribute(ph, sp, v.src, results[i])
		}
	}
	refresh := time.Since(start)
	op.End()
	failed := false
	for i, v := range w.views {
		if errs[i] == nil {
			errs[i] = w.expect(v).check(results[i].Rows)
		}
		if errs[i] != nil {
			ph.fail("%s after %s: %v", v.src, class, errs[i])
			failed = true
			continue
		}
		ph.ok("read", lat[i])
		ph.addRows(len(results[i].Rows))
		if len(ph.probe.answers) < maxProbeAnswers {
			ph.probe.answers = append(ph.probe.answers, results[i])
		}
	}
	if !failed {
		ph.sample("refresh", refresh)
		ph.sample("refresh."+strings.TrimPrefix(class, "commit."), refresh)
	}
}

// attribute records a view read's evaluation phases when the read
// evaluated (a plan reuse or a miss) instead of serving the memo.
func (w *commitViews) attribute(ph *phase, s *obs.Span, src string, res *dkbms.QueryResult) {
	if res.Cache != "plan" && res.Cache != "miss" {
		return
	}
	ph.evaluated(src, res.Snapshot)
	if ph.tr == nil {
		return
	}
	if res.Cache == "miss" {
		c := s.Start("core.compile")
		c.Offset = s.Offset
		c.SetDuration(res.Compile.Total)
		ph.addCompile(c, res.Compile)
	}
	e := s.Start("rtlib.eval")
	e.Offset = s.Offset + s.Duration - res.Eval.Elapsed
	e.SetDuration(res.Eval.Elapsed)
	ph.addEval(e, res)
}

// commit runs one write under a span and records its latency and the
// snapshot backlog after it.
func (w *commitViews) commit(ph *phase, parent *obs.Span, class string, fn func() error) error {
	sp := parent.Start("snapshot.commit")
	before := w.c.MatViewStats()
	stall := w.c.SnapshotStats().WriterStall
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return err
	}
	ph.ok("commit", d)
	ph.sample(class, d)
	ph.add("snapshot.commit_us", float64(d)/1e3)
	st := w.c.SnapshotStats()
	ph.committed(st.ReclaimBacklog)
	if ph.tr != nil {
		after := w.c.MatViewStats()
		childSpans(sp, []phaseTime{
			{"snapshot.shadow_copy", st.WriterStall - stall},
			{"matview.maintain", after.MaintainTime - before.MaintainTime},
		})
	}
	return nil
}

func (w *commitViews) insert(ph *phase, op *obs.Span) error {
	k := int(math.Exp(w.rng.Float64() * math.Log(float64(w.sh.maxBatch))))
	if k < 1 {
		k = 1
	}
	i := w.rng.Intn(len(w.freeLeaves))
	leaf := w.freeLeaves[i]
	w.freeLeaves[i] = w.freeLeaves[len(w.freeLeaves)-1]
	w.freeLeaves = w.freeLeaves[:len(w.freeLeaves)-1]
	b := cvBatch{leaf: leaf}
	var src strings.Builder
	for j := 0; j < k; j++ {
		w.nextNode++
		kid := fmt.Sprintf("z%d", w.nextNode)
		b.kids = append(b.kids, kid)
		fmt.Fprintf(&src, "parent(%s, %s).\nup(%s, %s).\n", leaf, kid, kid, leaf)
	}
	w.keep(src.String())
	err := w.commit(ph, op, "commit.insert", func() error { return w.c.Load(src.String()) })
	if err != nil {
		return err
	}
	w.live = append(w.live, b)
	w.model[leaf] = append(w.model[leaf], b.kids...)
	for _, kid := range b.kids {
		w.up[kid] = leaf
	}
	return nil
}

// retract removes an earlier batch: its parent edges, then its up edges
// (two commits, both inside the step's refresh time).
func (w *commitViews) retract(ph *phase, op *obs.Span) error {
	i := w.rng.Intn(len(w.live))
	b := w.live[i]
	for _, pat := range []string{
		fmt.Sprintf("parent(%s, X)", b.leaf),
		fmt.Sprintf("up(X, %s)", b.leaf),
	} {
		err := w.commit(ph, op, "commit.retract", func() error {
			n, err := w.c.RetractSrc(pat)
			if err == nil && n != len(b.kids) {
				err = fmt.Errorf("retract %s removed %d facts, want %d", pat, n, len(b.kids))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	w.live[i] = w.live[len(w.live)-1]
	w.live = w.live[:len(w.live)-1]
	w.freeLeaves = append(w.freeLeaves, b.leaf)
	delete(w.model, b.leaf)
	for _, kid := range b.kids {
		delete(w.up, kid)
	}
	return nil
}

// keep records a committed program text for the parse replay.
func (w *commitViews) keep(src string) {
	if len(w.programs) < maxProbeAnswers {
		w.programs = append(w.programs, src)
	}
}

// appendEvents appends a few rows to event, which no view reads.
func (w *commitViews) appendEvents(ph *phase, op *obs.Span) error {
	var src strings.Builder
	n := 1 + w.rng.Intn(4)
	for j := 0; j < n; j++ {
		t := w.eventTuple()
		fmt.Fprintf(&src, "event(%s, %s).\n", t[0].Str, t[1].Str)
	}
	w.keep(src.String())
	if err := w.commit(ph, op, "commit.event", func() error { return w.c.Load(src.String()) }); err != nil {
		return err
	}
	w.eventRows += n
	return nil
}

// ruleUpdate is the paper's rule-base update t_u: Load of a new rule
// plus Update of the stored rule base, through ConcurrentTestbed. Every
// view is dropped and re-derived by the reads that follow.
func (w *commitViews) ruleUpdate(ph *phase, op *obs.Span) error {
	w.nextRule++
	rule := fmt.Sprintf("extra%d(X, Y) :- %s(X, Y).\n", w.nextRule, workload.ChainPred(w.rng.Intn(w.sh.chains), 0))
	start := time.Now()
	if err := w.commit(ph, op, "commit.rule_load", func() error { return w.c.Load(rule) }); err != nil {
		return err
	}
	var st stored.UpdateStats
	err := w.commit(ph, op, "commit.rule_update", func() error {
		var err error
		st, err = w.c.Update()
		return err
	})
	if err != nil {
		return err
	}
	ph.sample("rule_update", time.Since(start))
	ph.add("stored.update_us", float64(st.Total)/1e3)
	w.rs++
	return nil
}

func (w *commitViews) finish(ph *phase) error {
	tb := w.c.Testbed()
	ph.storePages = storePages(tb.DB())
	ph.notes["rule_base_rules"] = w.rs
	ph.notes["event_rows"] = w.eventRows
	ph.notes["pager"] = "file-backed, no fsync per commit; dirty pages are written back on eviction and at Close"
	ph.notes["maintenance_policy"] = "auto (default)"
	ph.notes["views"] = len(w.views)
	if fi, err := os.Stat(filepath.Join(w.dir, "dkb.db")); err == nil {
		ph.notes["db_file_bytes"] = fi.Size()
	}
	for _, v := range w.views {
		ph.probe.queries = append(ph.probe.queries, v.src)
		if q, err := dlog.ParseQuery(v.src); err == nil {
			if compiled, err := tb.Compile(q, nil); err == nil {
				ph.probe.sql = append(ph.probe.sql, programSQL(compiled.Program)...)
			}
		}
	}
	ph.probe.tuples, ph.probe.schema = w.eventSample, twoStrings
	ph.probe.programs = w.programs
	return nil
}
