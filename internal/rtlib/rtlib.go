// Package rtlib is the testbed's Run Time Library (paper §3.3): the
// bottom-up least-fixed-point machinery that executes the evaluation
// program produced by the code generator against the DBMS through its
// SQL interface.
//
// Two LFP strategies are implemented, as in the paper:
//
//   - naive evaluation: each iteration recomputes f(R) from scratch into
//     a fresh table and terminates when no new tuple appeared;
//   - semi-naive evaluation: the differential approach, run by the one
//     delta loop of this package (Loop). Round 0 fires the exit rules;
//     every later round fires each rule once per FROM position whose
//     predicate is in the delta-predicate set and has a non-empty delta,
//     keeps only tuples absent from the accumulator, and promotes them.
//
// The delta loop is also what the materialized-view layer runs: insert
// maintenance seeds it with base-table deltas, and Delete-and-Rederive's
// over-delete phase runs it against the pre-state. Its dedup is one of
// two backends: the SQL backend (INSERT ... EXCEPT acc EXCEPT next, the
// default, as in the paper) or, under Options.Parallel, the hash
// backend, which runs a round's SELECTs concurrently and deduplicates
// against sharded Go-side sets.
//
// Exactly as the paper laments, the SQL path runs everything over plain
// SQL: temp tables are created and dropped per round, termination
// checks are set differences or counts, and accumulated relations are
// copied. The library instruments those costs (Stats) because they are
// the subject of the paper's Tests 5–7.
package rtlib

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
)

// Strategy selects the LFP evaluation algorithm.
type Strategy int

// Available strategies.
const (
	SemiNaive Strategy = iota
	Naive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Naive {
		return "naive"
	}
	return "semi-naive"
}

// Options configure an evaluation run.
type Options struct {
	Strategy Strategy
	// KeepTables, when set, skips the final cleanup so callers can
	// inspect derived relations; Cleanup must then be called manually.
	KeepTables bool
	// Parallel evaluates each iteration's recursive-rule differentials
	// concurrently (the paper's conclusion 7a), hash-partitions large
	// dedup and termination checks across workers, and evaluates
	// independent evaluation-order nodes as a dependency wavefront.
	// The answer is identical to the sequential loop.
	Parallel bool
	// Pool, when non-nil and Parallel is set, bounds the evaluation's
	// concurrency on a shared worker pool with fair per-query
	// admission. Without a pool, parallel work falls back to transient
	// goroutines capped at GOMAXPROCS per evaluation.
	Pool *sched.Pool
	// Trace, when non-nil, records an "eval" span tree: one span per
	// evaluation-order node, per LFP iteration (delta cardinalities,
	// accumulator sizes, set-difference cost) and per generated SQL
	// statement's operator tree. Nil disables all recording at the cost
	// of a nil check.
	Trace *obs.Trace
	// Ctx, when non-nil, is polled at LFP iteration boundaries (and
	// between nodes); cancellation aborts the evaluation with an error
	// wrapping ctx.Err().
	Ctx context.Context
}

// NodeStats records the cost of evaluating one evaluation-order node.
type NodeStats struct {
	Preds      []string
	Recursive  bool
	Iterations int
	// Elapsed is the total wall-clock time in the node.
	Elapsed time.Duration
	// TempTable is time creating/dropping/copying temporary tables.
	TempTable time.Duration
	// Eval is time evaluating rule bodies (INSERT INTO ... SELECT).
	Eval time.Duration
	// TermCheck is time spent deciding termination (set differences /
	// counts).
	TermCheck time.Duration
	// Tuples is the final size of the node's derived relations.
	Tuples int
}

// Stats aggregates an evaluation run.
type Stats struct {
	Nodes []NodeStats
	// Totals across nodes.
	TempTable time.Duration
	Eval      time.Duration
	TermCheck time.Duration
	Elapsed   time.Duration
}

// Result is a completed evaluation.
type Result struct {
	// Rows are the tuples of the query predicate.
	Rows []rel.Tuple
	// Schema describes the rows.
	Schema *rel.Schema
	Stats  Stats

	ev *evaluator
}

// Cleanup drops any temp tables kept alive by Options.KeepTables.
func (r *Result) Cleanup() error {
	if r.ev == nil {
		return nil
	}
	err := r.ev.temps.DropAll(r.ev.d)
	r.ev = nil
	return err
}

// Detach transfers ownership of the evaluation's derived relations to
// the caller: the predicate→temp-table map and the registry that drops
// them eventually (the materialized-view layer wraps them and maintains
// them in place). After Detach, Cleanup is a no-op; both return nil
// unless the evaluation ran with Options.KeepTables. The evaluation is
// complete by the time a Result exists, so no lock is needed.
func (r *Result) Detach() (tables map[string]string, temps *Temps) {
	if r.ev == nil {
		return nil, nil
	}
	ev := r.ev
	r.ev = nil
	return ev.tables, ev.temps
}

// runSeq distinguishes concurrent evaluations' temp table names within
// one process (the shell, the benches and the server's sessions reuse a
// single DB). Incremented atomically: evaluations start concurrently.
var runSeq uint64

// maxPartitions caps hash-range partitioning of dedup, termination
// checks and delta tables: beyond ~8 ways the per-partition bookkeeping
// outweighs the parallelism for the deltas these workloads produce.
const maxPartitions = 8

// Evaluate runs a compiled program against the database.
func Evaluate(d *db.DB, prog *codegen.Program, opts Options) (*Result, error) {
	seq := atomic.AddUint64(&runSeq, 1)
	ev := &evaluator{
		d:      d,
		prog:   prog,
		opts:   opts,
		temps:  NewTemps(fmt.Sprintf("dkb%d_", seq)),
		tables: make(map[string]string),
		ctx:    opts.Ctx,
		parts:  1,
	}
	if opts.Parallel {
		if opts.Pool != nil {
			ev.client = opts.Pool.NewClient()
			defer ev.client.Close()
			ev.parts = opts.Pool.Workers()
		} else {
			ev.parts = runtime.GOMAXPROCS(0)
		}
		if ev.parts > maxPartitions {
			ev.parts = maxPartitions
		}
		if ev.parts < 1 {
			ev.parts = 1
		}
	}
	res, err := ev.run()
	if err != nil {
		// Best-effort teardown on failure.
		ev.temps.DropAll(ev.d)
		return nil, err
	}
	if !opts.KeepTables {
		if err := ev.temps.DropAll(ev.d); err != nil {
			return nil, err
		}
	} else {
		res.ev = ev
	}
	return res, nil
}

type evaluator struct {
	d     *db.DB
	prog  *codegen.Program
	opts  Options
	temps *Temps
	// mu guards tables: the stratum wavefront evaluates independent
	// nodes concurrently, and each registers its predicates' tables.
	mu sync.Mutex
	// tables maps derived predicates to their temp table names. Base
	// predicates map to themselves.
	tables map[string]string
	stats  Stats
	ctx    context.Context
	// client is the evaluation's admission handle on the shared worker
	// pool (nil without one); parts is the hash-range partition count
	// for dedup/termcheck/delta partitioning (1 = no partitioning).
	client *sched.Client
	parts  int
}

// tableOf resolves a predicate to its current relation name: the temp
// table for derived predicates, the extensional table otherwise.
func (ev *evaluator) tableOf(pred string) string {
	ev.mu.Lock()
	t, ok := ev.tables[pred]
	ev.mu.Unlock()
	if ok {
		return t
	}
	return codegen.BaseTable(pred)
}

func (ev *evaluator) run() (*Result, error) {
	start := time.Now()
	// Verify base relations and seeds up front for clean errors.
	for _, p := range ev.prog.BasePreds {
		if !ev.d.HasTable(codegen.BaseTable(p)) {
			return nil, fmt.Errorf("rtlib: extensional relation %s (for predicate %s) does not exist",
				codegen.BaseTable(p), p)
		}
	}
	if err := seedTuplesValid(ev.prog); err != nil {
		return nil, err
	}
	seeds := make(map[string][]rel.Tuple)
	for _, s := range ev.prog.Seeds {
		seeds[s.Pred] = append(seeds[s.Pred], s.Tuple)
	}
	// Seed-only predicates (no defining rules, e.g. the magic predicate
	// of a non-recursive bound subgoal) are materialized up front.
	nodePreds := make(map[string]bool)
	for _, n := range ev.prog.Nodes {
		for _, p := range n.Preds {
			nodePreds[p] = true
		}
	}
	var preStats NodeStats
	for _, s := range ev.prog.Seeds {
		if nodePreds[s.Pred] {
			continue
		}
		if _, made := ev.tables[s.Pred]; made {
			continue
		}
		if err := ev.createPredTable(s.Pred, seeds, &preStats); err != nil {
			return nil, err
		}
	}
	ev.stats.TempTable += preStats.TempTable

	evalSp := ev.opts.Trace.Start("eval")
	ev.stats.Nodes = make([]NodeStats, len(ev.prog.Nodes))
	if ev.client != nil && len(ev.prog.Nodes) > 1 {
		if err := ev.runWavefront(seeds, evalSp); err != nil {
			return nil, err
		}
	} else {
		for i := range ev.prog.Nodes {
			if err := ctxErr(ev.ctx); err != nil {
				return nil, err
			}
			if err := ev.evalNode(i, seeds, evalSp, -1); err != nil {
				return nil, err
			}
		}
	}
	if ev.client != nil {
		evalSp.SetInt("sched.admitted", ev.client.Admitted())
	}
	for i := range ev.stats.Nodes {
		ns := &ev.stats.Nodes[i]
		ev.stats.TempTable += ns.TempTable
		ev.stats.Eval += ns.Eval
		ev.stats.TermCheck += ns.TermCheck
	}

	ev.mu.Lock()
	qt, ok := ev.tables[ev.prog.QueryPred]
	ev.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rtlib: query predicate %s was not evaluated", ev.prog.QueryPred)
	}
	rows, err := ev.d.Query("SELECT * FROM " + qt)
	if err != nil {
		return nil, err
	}
	ev.stats.Elapsed = time.Since(start)
	evalSp.SetInt("rows", int64(len(rows.Tuples)))
	evalSp.End()
	return &Result{Rows: rows.Tuples, Schema: ev.prog.Schemas[ev.prog.QueryPred], Stats: ev.stats}, nil
}

// evalNode evaluates evaluation-order node i and records its stats at
// index i. worker is the pool worker running it (-1 when sequential or
// inline), recorded on the node's span.
func (ev *evaluator) evalNode(i int, seeds map[string][]rel.Tuple, evalSp *obs.Span, worker int) error {
	node := &ev.prog.Nodes[i]
	ns := &ev.stats.Nodes[i]
	ns.Preds = node.Preds
	ns.Recursive = node.Recursive
	var sp *obs.Span
	if evalSp != nil {
		sp = evalSp.Start("node " + strings.Join(node.Preds, ","))
		if node.Recursive {
			sp.SetString("kind", "recursive")
		}
		if worker >= 0 {
			sp.SetInt("sched.worker", int64(worker))
		}
	}
	nodeStart := time.Now()
	var err error
	switch {
	case !node.Recursive:
		err = ev.evalNonRecursive(node, seeds, ns, sp)
	case ev.opts.Strategy == Naive:
		err = ev.evalCliqueNaive(node, seeds, ns, sp)
	default:
		err = ev.evalClique(node, seeds, ns, sp)
	}
	if err != nil {
		return err
	}
	ns.Elapsed = time.Since(nodeStart)
	for _, p := range node.Preds {
		ns.Tuples += ev.d.TableRows(ev.tableOf(p))
	}
	sp.SetInt("iterations", int64(ns.Iterations))
	sp.SetInt("tuples", int64(ns.Tuples))
	sp.End()
	return nil
}

// runWavefront evaluates the evaluation-order list as a dependency
// wavefront on the shared pool: a node is forked as soon as every node
// it reads has finished, so independent cliques — separate recursions
// with no path between them, or a query over several disjoint rule
// families — evaluate concurrently. Program.Nodes is topologically
// ordered (dependencies first), so at least one node is always ready
// and the forked set grows monotonically toward completion.
func (ev *evaluator) runWavefront(seeds map[string][]rel.Tuple, evalSp *obs.Span) error {
	n := len(ev.prog.Nodes)
	dependents := make([][]int, n)
	remaining := make([]int, n)
	for i := range ev.prog.Nodes {
		deps := ev.prog.Nodes[i].Deps
		remaining[i] = len(deps)
		for _, j := range deps {
			dependents[j] = append(dependents[j], i)
		}
	}
	var mu sync.Mutex // guards remaining and firstErr
	var firstErr error
	g := ev.client.Group()
	var launch func(i int)
	launch = func(i int) {
		g.Go(func(worker int) {
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				return
			}
			err := ctxErr(ev.ctx)
			if err == nil {
				err = ev.evalNode(i, seeds, evalSp, worker)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, j := range dependents[i] {
				remaining[j]--
				if remaining[j] == 0 {
					launch(j)
				}
			}
		})
	}
	mu.Lock()
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			launch(i)
		}
	}
	mu.Unlock()
	g.Wait()
	return firstErr
}

// createPredTable creates the temp table for a derived predicate and
// registers it, inserting any seeds.
func (ev *evaluator) createPredTable(pred string, seeds map[string][]rel.Tuple, ns *NodeStats) error {
	t0 := time.Now()
	name, err := ev.temps.Create(ev.d, sanitize(pred), ev.prog.Schemas[pred])
	ns.TempTable += time.Since(t0)
	if err != nil {
		return err
	}
	ev.mu.Lock()
	ev.tables[pred] = name
	ev.mu.Unlock()
	return ev.d.InsertTuples(name, seeds[pred])
}

// evalNonRecursive evaluates a non-recursive predicate node: union of
// its rules, deduplicated.
func (ev *evaluator) evalNonRecursive(node *codegen.Node, seeds map[string][]rel.Tuple, ns *NodeStats, sp *obs.Span) error {
	for _, p := range node.Preds {
		if err := ev.createPredTable(p, seeds, ns); err != nil {
			return err
		}
	}
	for _, r := range node.Rules() {
		if err := ev.insertRule(ev.tableOf(r.Head), r, ns, sp); err != nil {
			return err
		}
	}
	ns.Iterations = 1
	return nil
}

// insertRule adds the rule's tuples that target lacks to target.
func (ev *evaluator) insertRule(target string, r *codegen.RuleSQL, ns *NodeStats, sp *obs.Span) error {
	stmt := fmt.Sprintf("INSERT INTO %s %s EXCEPT SELECT * FROM %s", target, r.SQL(ev.tableOf), target)
	return execRule(ev.d, ev.ctx, r, stmt, ns, sp)
}

// sanitize maps predicate names injectively onto SQL identifier bodies:
// the uniform "p" prefix keeps reserved predicates (leading '_') legal
// and collision-free against user predicates.
func sanitize(pred string) string {
	return "p" + pred
}
