package rtlib

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// Temps is a temp-table registry: the single CREATE TEMP TABLE builder
// of the run-time library and the view layer, plus the names a finished
// or failed run still has to drop. It holds no DB handle because its
// tables can outlive the one they were created through: a view drops
// an evaluation's tables on the live database long after the snapshot
// the evaluation read is gone. Safe for concurrent use: wavefront nodes
// create their tables concurrently.
type Temps struct {
	prefix  string
	mu      sync.Mutex
	created []string
}

// NewTemps returns a registry whose tables are named prefix+name.
func NewTemps(prefix string) *Temps {
	return &Temps{prefix: prefix}
}

// Create makes the temp table prefix+name with the schema's columns and
// returns its full name.
func (t *Temps) Create(d *db.DB, name string, schema *rel.Schema) (string, error) {
	name = t.prefix + name
	if schema == nil {
		return "", fmt.Errorf("rtlib: no schema for temp table %s", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TEMP TABLE %s (", name)
	for i := 0; i < schema.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		c := schema.Col(i)
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type.String())
	}
	b.WriteByte(')')
	if err := d.Exec(b.String()); err != nil {
		return "", err
	}
	t.mu.Lock()
	t.created = append(t.created, name)
	t.mu.Unlock()
	return name, nil
}

// Drop drops a table made by Create.
func (t *Temps) Drop(d *db.DB, name string) error {
	t.mu.Lock()
	for i, c := range t.created {
		if c == name {
			t.created = append(t.created[:i], t.created[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	return d.Exec("DROP TABLE " + name)
}

// DropAll drops every table still registered and returns the first
// error.
func (t *Temps) DropAll(d *db.DB) error {
	t.mu.Lock()
	names := t.created
	t.created = nil
	t.mu.Unlock()
	var firstErr error
	for _, name := range names {
		if err := d.Exec("DROP TABLE " + name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Firing is one rule evaluation of a delta round: Rule with the
// relation at FROM position Pos replaced by the table Delta, and the
// loop's Read relation at every other position. Pos -1 fires the rule
// with no delta position.
type Firing struct {
	Rule  *codegen.RuleSQL
	Pos   int
	Delta string
}

// sql renders the firing's SELECT.
func (f Firing) sql(read func(string) string) string {
	tables := make([]string, len(f.Rule.From))
	for i, fe := range f.Rule.From {
		if i == f.Pos {
			tables[i] = f.Delta
		} else {
			tables[i] = read(fe.Pred)
		}
	}
	return f.Rule.SQLWithTables(tables)
}

// Loop is one run of the semi-naive (differential) method of paper
// §3.3, the single delta loop behind LFP evaluation, parallel
// evaluation and materialized-view maintenance. Round 0 runs the
// caller's Seed firings; every later round fires each rule once per
// FROM position whose predicate is in Preds and whose delta from the
// previous round is non-empty. Each round keeps only tuples absent from
// the accumulator and from the round so far, promotes them into the
// accumulator, and the loop ends after the first round that keeps
// nothing.
type Loop struct {
	// Rules are the rules later rounds differentiate.
	Rules []*codegen.RuleSQL
	// Preds is the delta-predicate set. Every fired rule's head is in it.
	Preds []string
	// Read names the relation read at non-delta positions.
	Read func(pred string) string
	// Acc maps each predicate of Preds to its accumulator table.
	Acc map[string]string
	// Schemas gives the schema of each predicate's delta tables.
	Schemas map[string]*rel.Schema
	// Seed are round 0's firings; SeedTuples are extra round-0 delta
	// tuples (magic seeds).
	Seed       []Firing
	SeedTuples map[string][]rel.Tuple
}

// Run runs the loop on d with the SQL backend, creating its delta
// tables through temps. It returns the number of tuples promoted into
// the accumulators and the rounds after the seed, the final empty round
// included.
func (l *Loop) Run(d *db.DB, temps *Temps) (promoted, rounds int, err error) {
	var ns NodeStats
	r := &loopRun{Loop: l, d: d, temps: temps, ns: &ns}
	r.b = &sqlBackend{r: r}
	err = r.run()
	return r.promoted, ns.Iterations, err
}

// runLoop runs a loop inside an evaluation: Options.Parallel selects
// the hash backend, and the loop's costs and spans land on the node.
func (ev *evaluator) runLoop(l *Loop, ns *NodeStats, sp *obs.Span) error {
	r := &loopRun{Loop: l, d: ev.d, temps: ev.temps, ctx: ev.ctx, ns: ns, sp: sp}
	if ev.opts.Parallel {
		r.b = &hashBackend{r: r, ev: ev}
	} else {
		r.b = &sqlBackend{r: r}
	}
	return r.run()
}

// backend is the loop's dedup strategy, the only part that varies.
type backend interface {
	// fire evaluates round k's firings and seed tuples (Eval).
	fire(k int, fs []Firing, seeds map[string][]rel.Tuple, sp *obs.Span) error
	// check returns how many genuinely new tuples round k produced per
	// predicate (TermCheck).
	check() (map[string]int, error)
	// promote adds round k's new tuples to the accumulators and returns
	// the tables holding them, the next round's delta, per predicate.
	promote(counts map[string]int) (map[string][]string, error)
}

// loopRun is the state of one loop run. A run that fails leaves its
// delta tables to the caller's Temps.DropAll.
type loopRun struct {
	*Loop
	d        *db.DB
	temps    *Temps
	ctx      context.Context
	ns       *NodeStats
	sp       *obs.Span
	b        backend
	cur      map[string][]string // the current delta's tables
	promoted int
}

func (r *loopRun) run() error {
	if _, err := r.round(0, r.Seed, r.SeedTuples); err != nil {
		return err
	}
	for {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
		r.ns.Iterations++
		fs := deltaFirings(r.Rules, func(p string) []string { return r.cur[p] })
		n, err := r.round(r.ns.Iterations, fs, nil)
		if err != nil || n == 0 {
			return err
		}
	}
}

// round runs round k and returns how many tuples it promoted.
func (r *loopRun) round(k int, fs []Firing, seeds map[string][]rel.Tuple) (int, error) {
	var itSp *obs.Span
	if r.sp != nil {
		itSp = r.sp.Start(fmt.Sprintf("iteration %d", k))
		defer itSp.End()
	}
	if err := r.b.fire(k, fs, seeds, itSp); err != nil {
		return 0, err
	}
	tcSp := itSp.Start("termcheck")
	counts, err := r.b.check()
	tcSp.End()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, ts := range r.cur {
		for _, t := range ts {
			if err := r.temps.Drop(r.d, t); err != nil {
				return 0, err
			}
		}
	}
	r.cur, err = r.b.promote(counts)
	r.ns.TempTable += time.Since(t0)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, p := range r.Preds {
		total += counts[p]
		if itSp != nil {
			itSp.SetInt("delta("+p+")", int64(counts[p]))
			itSp.SetInt("acc("+p+")", int64(r.d.TableRows(r.Acc[p])))
		}
	}
	r.promoted += total
	return total, nil
}

// deltaFirings lists a round's firings: each rule once per FROM
// position that deltas names tables for, once per table.
func deltaFirings(rules []*codegen.RuleSQL, deltas func(pred string) []string) []Firing {
	var fs []Firing
	for _, rule := range rules {
		for pos, f := range rule.From {
			for _, t := range deltas(f.Pred) {
				fs = append(fs, Firing{Rule: rule, Pos: pos, Delta: t})
			}
		}
	}
	return fs
}

// deltaName names partition part of predicate p's round-k delta table.
func deltaName(k, part int, p string) string {
	return fmt.Sprintf("d%dp%d_%s", k, part, sanitize(p))
}

// sqlBackend deduplicates inside the DBMS, as the paper's testbed does:
// each firing is INSERT INTO next ... EXCEPT acc EXCEPT next, and the
// termination check counts the round's tables.
type sqlBackend struct {
	r    *loopRun
	k    int
	next map[string]string // round k's delta tables, created on first use
}

func (b *sqlBackend) table(p string) (string, error) {
	if t, ok := b.next[p]; ok {
		return t, nil
	}
	t0 := time.Now()
	t, err := b.r.temps.Create(b.r.d, deltaName(b.k, 0, p), b.r.Schemas[p])
	b.r.ns.TempTable += time.Since(t0)
	if err != nil {
		return "", err
	}
	b.next[p] = t
	return t, nil
}

func (b *sqlBackend) fire(k int, fs []Firing, seeds map[string][]rel.Tuple, sp *obs.Span) error {
	r := b.r
	b.k, b.next = k, make(map[string]string)
	for _, p := range r.Preds {
		if len(seeds[p]) == 0 {
			continue
		}
		t, err := b.table(p)
		if err != nil {
			return err
		}
		if err := r.d.InsertTuples(t, seeds[p]); err != nil {
			return err
		}
	}
	for _, f := range fs {
		head := f.Rule.Head
		t, err := b.table(head)
		if err != nil {
			return err
		}
		stmt := fmt.Sprintf("INSERT INTO %s %s EXCEPT SELECT * FROM %s EXCEPT SELECT * FROM %s",
			t, f.sql(r.Read), r.Acc[head], t)
		if err := execRule(r.d, r.ctx, f.Rule, stmt, r.ns, sp); err != nil {
			return err
		}
	}
	return nil
}

// execRule runs one rule's INSERT ... SELECT, recording its operator
// tree under a "rule <head>" span of sp and its time as Eval.
func execRule(d *db.DB, ctx context.Context, r *codegen.RuleSQL, stmt string, ns *NodeStats, sp *obs.Span) error {
	var ruleSp *obs.Span
	if sp != nil {
		ruleSp = sp.Start("rule " + r.Head)
		ruleSp.SetString("src", r.Source)
	}
	t0 := time.Now()
	err := d.ExecTracedCtx(evalCtx(ctx), stmt, ruleSp)
	ruleSp.End()
	ns.Eval += time.Since(t0)
	if err != nil {
		return fmt.Errorf("rtlib: rule %q: %w", r.Source, err)
	}
	return nil
}

func (b *sqlBackend) check() (map[string]int, error) {
	counts := make(map[string]int, len(b.next))
	for p, t := range b.next {
		t0 := time.Now()
		n, err := b.r.d.QueryCount("SELECT COUNT(*) FROM " + t)
		b.r.ns.TermCheck += time.Since(t0)
		if err != nil {
			return nil, err
		}
		counts[p] = int(n)
	}
	return counts, nil
}

func (b *sqlBackend) promote(counts map[string]int) (map[string][]string, error) {
	r := b.r
	cur := make(map[string][]string, len(b.next))
	for _, p := range r.Preds {
		t, ok := b.next[p]
		switch {
		case !ok:
		case counts[p] == 0:
			if err := r.temps.Drop(r.d, t); err != nil {
				return nil, err
			}
		default:
			if err := r.d.Exec(fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", r.Acc[p], t)); err != nil {
				return nil, err
			}
			cur[p] = []string{t}
		}
	}
	return cur, nil
}

// ctxErr polls a run's context (nil = never canceled): the loop's
// round-boundary cancellation point.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rtlib: evaluation canceled: %w", err)
	}
	return nil
}

// evalCtx returns the context for statement-level cancellation, or
// Background when the run has none.
func evalCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
