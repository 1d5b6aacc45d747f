package rtlib

import (
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// Partitioning thresholds. Below these sizes the serial loop wins: the
// per-partition bookkeeping (maps, slices, task handoff) costs more
// than the work it divides.
const (
	// dedupThreshold is the per-iteration raw result size (tuples
	// across all differentials) at which Go-side dedup is hash-range
	// partitioned across workers.
	dedupThreshold = 256
	// partitionThreshold is the per-predicate delta size at which the
	// delta relation is split into hash-range partition tables so each
	// differential SELECT becomes parts independent jobs.
	partitionThreshold = 1024
)

// tupleShard assigns a tuple key to one of parts hash-range partitions.
// FNV-1a: cheap, stable, and independent of Go's map hash so partition
// contents are deterministic across runs.
func tupleShard(key string, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(parts))
}

// runJobs executes n independent jobs concurrently, bounded by the
// shared worker pool when the evaluation has one (fair admission across
// sessions), else by a GOMAXPROCS-slot semaphore so a single evaluation
// never fans out more goroutines than cores regardless of how many rule
// differentials an iteration produces. The job's second argument is the
// pool worker index (-1 for inline/fallback execution).
func (ev *evaluator) runJobs(n int, job func(i, worker int)) {
	if n <= 1 {
		if n == 1 {
			job(0, -1)
		}
		return
	}
	if ev.client != nil {
		g := ev.client.Group()
		for i := 0; i < n; i++ {
			i := i
			g.Go(func(worker int) { job(i, worker) })
		}
		g.Wait()
		return
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{} // bounding acquire, released by the job
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			job(i, -1)
		}(i)
	}
	wg.Wait()
}

// parallelSelects evaluates read-only SELECT statements concurrently on
// the evaluation's job runner. When sp is non-nil each statement records
// an operator-tree span under it, labelled by the matching labels entry
// (the trace serializes concurrent appends) and tagged with the worker
// that ran it.
func (ev *evaluator) parallelSelects(sqls, labels []string, ns *NodeStats, sp *obs.Span) ([][]rel.Tuple, error) {
	results := make([][]rel.Tuple, len(sqls))
	errs := make([]error, len(sqls))
	t0 := time.Now()
	ev.runJobs(len(sqls), func(i, worker int) {
		var jobSp *obs.Span
		if sp != nil {
			jobSp = sp.Start(labels[i])
			jobSp.SetInt("sched.worker", int64(worker))
		}
		rows, err := ev.d.QueryTracedCtx(evalCtx(ev.ctx), sqls[i], jobSp)
		jobSp.End()
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = rows.Tuples
	})
	ns.Eval += time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// accSet is one predicate's accumulated-tuple index, sharded by hash
// range: shard k holds exactly the keys tupleShard assigns to k, so a
// partitioned dedup pass owns its shard exclusively and runs without
// locks.
type accSet []map[string]bool

func newAccSet(parts int) accSet {
	s := make(accSet, parts)
	for i := range s {
		s[i] = make(map[string]bool)
	}
	return s
}

// dedup filters the raw differential results down to genuinely new
// tuples, updating acc. results[i] belongs to predicate heads[i]. The
// returned slices are indexed by partition then predicate — partition
// p's tuples all hash to shard p, which is exactly the layout the
// partitioned delta tables want. Small batches run serially into
// partition 0's slot ordering (same hash shards, so correctness is
// unaffected); large ones fan one task per shard onto the pool, each
// task probing and updating only its own shard — lock-free.
func (ev *evaluator) dedup(heads []string, results [][]rel.Tuple, acc map[string]accSet, ns *NodeStats) []map[string][]rel.Tuple {
	parts := ev.parts
	out := make([]map[string][]rel.Tuple, parts)
	for p := range out {
		out[p] = make(map[string][]rel.Tuple)
	}
	total := 0
	for _, rows := range results {
		total += len(rows)
	}
	t0 := time.Now()
	if parts == 1 || total < dedupThreshold {
		for i, rows := range results {
			a := acc[heads[i]]
			for _, tu := range rows {
				k := tu.Key()
				if m := a[tupleShard(k, parts)]; !m[k] {
					m[k] = true
					out[0][heads[i]] = append(out[0][heads[i]], tu)
				}
			}
		}
		ns.TermCheck += time.Since(t0)
		return out
	}
	// Precompute keys and shards once (the partition tasks would
	// otherwise each re-derive every tuple's key).
	keys := make([][]string, len(results))
	shards := make([][]uint8, len(results))
	ev.runJobs(len(results), func(i, _ int) {
		keys[i] = make([]string, len(results[i]))
		shards[i] = make([]uint8, len(results[i]))
		for j, tu := range results[i] {
			k := tu.Key()
			keys[i][j] = k
			shards[i][j] = uint8(tupleShard(k, parts))
		}
	})
	ev.runJobs(parts, func(p, _ int) {
		for i, rows := range results {
			m := acc[heads[i]][p]
			for j, tu := range rows {
				if int(shards[i][j]) != p {
					continue
				}
				k := keys[i][j]
				if m[k] {
					continue
				}
				m[k] = true
				out[p][heads[i]] = append(out[p][heads[i]], tu)
			}
		}
	})
	ns.TermCheck += time.Since(t0)
	return out
}

// hashBackend is the delta loop's Go-side dedup (Options.Parallel), the
// paper's conclusions 6b and 7a realized on the bounded scheduler. A
// round's firings run as concurrent SELECTs (reads only: the engine's
// buffer pool and indexes are safe for concurrent readers), and their
// results are deduplicated against a sharded Go-side accumulator index
// instead of the SQL set differences the paper laments. Large deltas
// are split into hash-range partition tables, so one rule's
// differential becomes several independent jobs.
type hashBackend struct {
	r       *loopRun
	ev      *evaluator
	acc     map[string]accSet
	k       int
	heads   []string      // head predicate of each results entry
	results [][]rel.Tuple // round k's raw tuples
	byShard []map[string][]rel.Tuple
}

func (b *hashBackend) fire(k int, fs []Firing, seeds map[string][]rel.Tuple, sp *obs.Span) error {
	r := b.r
	if b.acc == nil {
		b.acc = make(map[string]accSet, len(r.Preds))
		for _, p := range r.Preds {
			b.acc[p] = newAccSet(b.ev.parts)
		}
	}
	sp.SetInt("sched.partitions", int64(b.ev.parts))
	b.k, b.heads, b.results = k, nil, nil
	for _, p := range r.Preds {
		if len(seeds[p]) > 0 {
			b.heads = append(b.heads, p)
			b.results = append(b.results, seeds[p])
		}
	}
	sqls := make([]string, len(fs))
	labels := make([]string, len(fs))
	for i, f := range fs {
		sqls[i] = f.sql(r.Read)
		labels[i] = "rule " + f.Rule.Head
		b.heads = append(b.heads, f.Rule.Head)
	}
	rows, err := b.ev.parallelSelects(sqls, labels, r.ns, sp)
	if err != nil {
		return err
	}
	b.results = append(b.results, rows...)
	return nil
}

func (b *hashBackend) check() (map[string]int, error) {
	b.byShard = b.ev.dedup(b.heads, b.results, b.acc, b.r.ns)
	counts := make(map[string]int)
	for _, m := range b.byShard {
		for p, tus := range m {
			counts[p] += len(tus)
		}
	}
	return counts, nil
}

func (b *hashBackend) promote(counts map[string]int) (map[string][]string, error) {
	r := b.r
	cur := make(map[string][]string)
	for _, p := range r.Preds {
		if counts[p] == 0 {
			continue
		}
		groups := make([][]rel.Tuple, 1, len(b.byShard))
		for _, m := range b.byShard {
			groups[0] = append(groups[0], m[p]...)
		}
		if err := r.d.InsertTuples(r.Acc[p], groups[0]); err != nil {
			return nil, err
		}
		if b.ev.parts > 1 && counts[p] >= partitionThreshold {
			groups = groups[:0]
			for _, m := range b.byShard {
				groups = append(groups, m[p])
			}
		}
		for part, tus := range groups {
			if len(tus) == 0 {
				continue
			}
			t, err := r.temps.Create(r.d, deltaName(b.k, part, p), r.Schemas[p])
			if err != nil {
				return nil, err
			}
			if err := r.d.InsertTuples(t, tus); err != nil {
				return nil, err
			}
			cur[p] = append(cur[p], t)
		}
	}
	b.heads, b.results, b.byShard = nil, nil, nil
	return cur, nil
}
