package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/codegen"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
	"dkbms/internal/workload"
)

// lfp-cold: the paper's query traffic on an embedded Testbed with no
// plan cache, one goroutine. Every query compiles and runs a full
// least-fixed-point evaluation, so the Knowledge Manager, the run-time
// library and the relational engine below it do nearly all the work;
// the plan cache, snapshots, views and the wire do none.

// dataShape sizes the generated D/KB.
type dataShape struct {
	depth                     int // parent tree depth
	chains, chainLen          int // RuleChains stored rule base
	wideChains                int // WideRuleChains heads (renamed wq*)
	cycles, cycleLen, nChords int // CyclicGraph edge relation
	hotTexts                  int // serve-mixed query-text population
}

func shapeFor(cfg config) dataShape {
	if cfg.small {
		return dataShape{depth: 6, chains: 10, chainLen: 5, wideChains: 2, cycles: 3, cycleLen: 6, nChords: 4, hotTexts: 8}
	}
	return dataShape{depth: 10, chains: 200, chainLen: 10, wideChains: 20, cycles: 16, cycleLen: 32, nChords: 256, hotTexts: 64}
}

// The recursive rules of every workload. sg relates nodes of one tree
// level: flat relates each node to itself, and the recursion climbs
// through up and descends through parent.
const treeRules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), parent(V, Y).
`

const reachRules = `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
`

// treeData returns the parent tree, its inverse up, and flat.
func treeData(depth int) (parent, up, flat []rel.Tuple) {
	parent = workload.FullBinaryTree(depth)
	for _, e := range parent {
		up = append(up, rel.Tuple{e[1], e[0]})
	}
	for i := 1; i <= workload.TreeNodes(depth); i++ {
		n := rel.NewString(workload.TreeNode(i))
		flat = append(flat, rel.Tuple{n, n})
	}
	return parent, up, flat
}

// relation is one generated fact relation; indexed ones get a B+tree on
// column 0.
type relation struct {
	pred    string
	rows    []rel.Tuple
	indexed bool
}

// loadRelations asserts each relation into tb and builds its index.
func loadRelations(tb *dkbms.Testbed, rels []relation) error {
	for _, r := range rels {
		if err := tb.AssertTuples(r.pred, r.rows); err != nil {
			return err
		}
		if r.indexed {
			if err := tb.CreateFactIndex(r.pred, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// wideHead renames WideRuleChains' derived predicates (q*) to wq* so
// they can share a stored rule base with RuleChains.
var wideHead = regexp.MustCompile(`\bq(\d+_\d+)\(`)

// ruleBase returns the stored rule base text (R_s rules): the tree and
// reach rules, RuleChains and renamed WideRuleChains. It asserts the
// chains' base facts into tb.
func ruleBase(tb *dkbms.Testbed, sh dataShape) (string, int, error) {
	var b strings.Builder
	b.WriteString(treeRules)
	b.WriteString(reachRules)
	n := 6
	rules, _, bases := workload.RuleChains(sh.chains, sh.chainLen)
	for _, r := range rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	n += len(rules)
	for _, p := range bases {
		if err := tb.AssertTuples(p, workload.ChainFacts()); err != nil {
			return "", 0, err
		}
	}
	wide, _, wbases := workload.WideRuleChains(sh.wideChains, sh.chainLen)
	for _, r := range wide {
		b.WriteString(wideHead.ReplaceAllString(r.String(), "wq$1("))
		b.WriteByte('\n')
	}
	n += len(wide)
	x := rel.NewString("x")
	for _, p := range wbases {
		if err := tb.AssertTuples(p, []rel.Tuple{{x, x}}); err != nil {
			return "", 0, err
		}
	}
	return b.String(), n, nil
}

// lfpQuery is one generated query. want computes its expected answer
// on demand, outside the clock, so the oracle keeps no state that grows
// with the operations completed.
type lfpQuery struct {
	kind string
	src  string
	opts dkbms.QueryOptions
	want func() answer
}

type lfpCold struct {
	sh     dataShape
	tb     *dkbms.Testbed
	pool   *sched.Pool
	g      graph
	rs     int
	gen    *lfpGen
	sqlSet map[string]bool
}

func setupLFPCold(cfg config) (instance, error) {
	sh := shapeFor(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	tb := dkbms.NewMemory()
	pool := sched.NewPool(0)
	tb.SetEvalPool(pool)
	w := &lfpCold{sh: sh, tb: tb, pool: pool, sqlSet: make(map[string]bool)}
	if err := w.load(rng); err != nil {
		w.close()
		return nil, err
	}
	w.gen = newLFPGen(sh, w.g, cfg.seed)
	// Warm-up: one query of each kind, untimed, so the first timed
	// query does not pay first-touch costs.
	for _, q := range w.gen.block() {
		res, err := tb.Query(q.src, &q.opts)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.src, err)
		}
		if err := q.want().check(res.Rows); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.src, err)
		}
	}
	w.gen = newLFPGen(sh, w.g, cfg.seed)
	return w, nil
}

func (w *lfpCold) load(rng *rand.Rand) error {
	tb := w.tb
	parent, up, flat := treeData(w.sh.depth)
	edges := workload.CyclicGraph(w.sh.cycles, w.sh.cycleLen, w.sh.nChords, rng)
	w.g = newGraph(edges)
	if err := loadRelations(tb, []relation{
		{"parent", parent, true}, {"up", up, true}, {"flat", flat, true}, {"edge", edges, true},
	}); err != nil {
		return err
	}
	src, n, err := ruleBase(tb, w.sh)
	if err != nil {
		return err
	}
	w.rs = n
	if err := tb.Load(src); err != nil {
		return err
	}
	_, err = tb.Update()
	return err
}

func (w *lfpCold) close() error {
	err := w.tb.Close()
	w.pool.Close()
	return err
}

func (w *lfpCold) counters() counters {
	var c counters
	d := w.tb.DB()
	c.db = d.StatsSnapshot()
	c.pool = d.PagerStats()
	c.readTables(d)
	c.sched = w.pool.Stats()
	c.readRuntime()
	return c
}

func (w *lfpCold) run(ph *phase) error {
	ph.primary, ph.window = "query", lfpWindow
	texts := make(map[string]bool)
	for !ph.done() {
		for _, q := range w.gen.block() {
			if ph.done() {
				break
			}
			texts[q.src] = true
			if ph.tr == nil {
				w.query(ph, q)
			} else {
				w.tracedQuery(ph, q)
			}
		}
	}
	ph.distinctTexts = len(texts)
	for t := range texts {
		ph.probe.queries = append(ph.probe.queries, t)
	}
	return nil
}

// query poses one query through Testbed.Query.
func (w *lfpCold) query(ph *phase, q lfpQuery) {
	start := time.Now()
	res, err := w.tb.Query(q.src, &q.opts)
	d := time.Since(start)
	w.settle(ph, q, res, err, d)
}

// tracedQuery poses one query as its three public steps, parse, compile
// and evaluate, each under a benchmark span; evaluation runs with
// QueryOptions.Trace so operator row counts are visible.
func (w *lfpCold) tracedQuery(ph *phase, q lfpQuery) {
	op := ph.tr.Start("query")
	op.SetString("kind", q.kind)
	res, err := func() (*dkbms.QueryResult, error) {
		sp := op.Start("dlog.parse")
		parsed, err := dlog.ParseQuery(q.src)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = op.Start("core.compile")
		compiled, err := w.tb.Compile(parsed, &q.opts)
		sp.End()
		if err != nil {
			return nil, err
		}
		ph.addCompile(sp, compiled.Stats)
		w.collectSQL(compiled.Program)
		opts := q.opts
		opts.Trace = true
		sp = op.Start("rtlib.eval")
		res, err := w.tb.Evaluate(compiled, &opts)
		sp.End()
		if err != nil {
			return nil, err
		}
		ph.addEval(sp, res)
		ph.addOperatorRows(res.Trace.Root())
		return res, nil
	}()
	op.End()
	w.settle(ph, q, res, err, op.Duration)
}

func (w *lfpCold) settle(ph *phase, q lfpQuery, res *dkbms.QueryResult, err error, d time.Duration) {
	if err != nil {
		ph.fail("%s: %v", q.src, err)
		return
	}
	if err := q.want().check(res.Rows); err != nil {
		ph.fail("%s %+v: %v", q.src, q.opts, err)
		return
	}
	ph.addRows(len(res.Rows))
	ph.ok("query", d)
	ph.sample("query."+q.kind, d)
	if len(ph.probe.answers) < maxProbeAnswers {
		ph.probe.answers = append(ph.probe.answers, res)
	}
}

// collectSQL keeps the generated rule SQL for the sql.Parse replay.
func (w *lfpCold) collectSQL(p *codegen.Program) {
	if len(w.sqlSet) >= maxProbeSQL {
		return
	}
	for _, s := range programSQL(p) {
		w.sqlSet[s] = true
	}
}

// programSQL renders a compiled program's rule SQL.
func programSQL(p *codegen.Program) []string {
	var out []string
	for _, n := range p.Nodes {
		for _, rules := range [][]codegen.RuleSQL{n.ExitRules, n.RecursiveRules} {
			for i := range rules {
				out = append(out, rules[i].SQL(dkbms.BaseTableName))
			}
		}
	}
	return out
}

func (w *lfpCold) finish(ph *phase) error {
	d := w.tb.DB()
	ph.storePages = storePages(d)
	ph.notes["rule_base_rules"] = w.rs
	ph.notes["relations"] = fmt.Sprintf("parent/up/flat depth-%d tree, edge CyclicGraph %dx%d+%d chords; index on column 0",
		w.sh.depth, w.sh.cycles, w.sh.cycleLen, w.sh.nChords)
	ph.notes["pager"] = "in-memory"
	for s := range w.sqlSet {
		ph.probe.sql = append(ph.probe.sql, s)
	}
	parent, _, _ := treeData(w.sh.depth)
	ph.probe.tuples, ph.probe.schema = parent, twoStrings
	return nil
}

// lfpWindow is the measurement window: 5 blocks of the query mix.
const lfpWindow = 100

// lfpGen generates the lfp-cold query stream. Each block of 20 holds a
// fixed mix, shuffled, with seeded bindings: 5 bound ancestor, 4 bound
// sg, 3 bound reach, one NoOptimize ancestor, one Parallel each of
// ancestor, sg and reach, 2 RuleChains heads and 2 WideRuleChains heads.
// Fixed proportions keep each percentile inside one mode of the mix.
type lfpGen struct {
	sh    dataShape
	g     graph
	rng   *rand.Rand
	decks map[string][]int
}

func newLFPGen(sh dataShape, g graph, seed int64) *lfpGen {
	return &lfpGen{
		sh:    sh,
		g:     g,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		decks: make(map[string][]int),
	}
}

// treeNode picks a node for a query kind. Levels come from a per-kind
// deck holding every level once, reshuffled when empty, so each kind
// sweeps the levels uniformly and every run poses the same level mix;
// the node within the level (all of equal cost) is seeded.
func (g *lfpGen) treeNode(kind string, minLevel int) int {
	deck := g.decks[kind]
	if len(deck) == 0 {
		deck = g.rng.Perm(g.sh.depth - minLevel + 1)
	}
	level := minLevel + deck[0]
	g.decks[kind] = deck[1:]
	lo, hi := levelNodes(level)
	return lo + g.rng.Intn(hi-lo+1)
}

func (g *lfpGen) ancestor(opts dkbms.QueryOptions) lfpQuery {
	// Bound ancestor sweeps levels 4 and below (126 answers down to
	// none); above that a bound closure costs as much as the NoOptimize
	// one and would blur the tail into several modes.
	minLevel := 4
	if opts.NoOptimize {
		minLevel = 1
	}
	k := g.treeNode(fmt.Sprintf("ancestor/%t/%t", opts.NoOptimize, opts.Parallel), minLevel)
	src := fmt.Sprintf("?- ancestor(%s, W).", workload.TreeNode(k))
	return lfpQuery{"ancestor", src, opts, expect(func() []string { return descendants(k, g.sh.depth) })}
}

func (g *lfpGen) sg(opts dkbms.QueryOptions) lfpQuery {
	k := g.treeNode(fmt.Sprintf("sg/%t", opts.Parallel), 1)
	src := fmt.Sprintf("?- sg(%s, W).", workload.TreeNode(k))
	return lfpQuery{"sg", src, opts, expect(func() []string { return sameGeneration(k) })}
}

func (g *lfpGen) reach(opts dkbms.QueryOptions) lfpQuery {
	n := workload.CyclicNode(g.rng.Intn(g.sh.cycles), g.rng.Intn(g.sh.cycleLen))
	src := fmt.Sprintf("?- reach(%s, Y).", n)
	return lfpQuery{"reach", src, opts, expect(func() []string { return g.g.reachable(n) })}
}

func (g *lfpGen) chain(wide bool) lfpQuery {
	if wide {
		src := fmt.Sprintf("?- wq%d_0(X, Y).", g.rng.Intn(g.sh.wideChains))
		return lfpQuery{"wide", src, dkbms.QueryOptions{}, expect(func() []string { return []string{"x,x"} })}
	}
	src := fmt.Sprintf("?- %s(X, Y).", workload.ChainPred(g.rng.Intn(g.sh.chains), 0))
	return lfpQuery{"chain", src, dkbms.QueryOptions{}, expect(func() []string {
		var out []string
		for _, t := range workload.ChainFacts() {
			out = append(out, rowKey(t))
		}
		return out
	})}
}

// expect wraps an oracle computation as an expected answer.
func expect(f func() []string) func() answer {
	return func() answer { return newAnswer(f()) }
}

func (g *lfpGen) block() []lfpQuery {
	var def dkbms.QueryOptions
	par := dkbms.QueryOptions{Parallel: true}
	var b []lfpQuery
	for i := 0; i < 5; i++ {
		b = append(b, g.ancestor(def))
	}
	for i := 0; i < 4; i++ {
		b = append(b, g.sg(def))
	}
	for i := 0; i < 3; i++ {
		b = append(b, g.reach(def))
	}
	noopt := g.ancestor(dkbms.QueryOptions{NoOptimize: true})
	noopt.kind += "-nooptimize"
	for _, q := range []lfpQuery{g.ancestor(par), g.sg(par), g.reach(par)} {
		q.kind += "-parallel"
		b = append(b, q)
	}
	b = append(b, noopt, g.chain(false), g.chain(false), g.chain(true), g.chain(true))
	g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}
