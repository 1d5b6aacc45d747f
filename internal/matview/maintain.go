package matview

import (
	"fmt"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/storage"
)

// Maintain refreshes the view through one commit's fact deltas and
// returns the refreshed answer rows (a fresh slice; the previous
// memoized rows are never mutated). It must run on the single-writer
// commit path, after the commit published: base tables are then in
// their post-commit state, which is exactly what the delta rounds join
// against.
//
// Deletions go first (Delete-and-Rederive against the pre-state, which
// is reconstructed as post-state ∪ deleted), then insertions propagate
// semi-naive. On error the view is inconsistent and the caller must
// drop it.
func (v *View) Maintain(d *db.DB, ev *Event) ([]rel.Tuple, error) {
	start := time.Now()
	tr := obs.NewTrace("maintain")

	// Restrict the commit footprint to tables the program reads.
	reads := make(map[string]bool, len(v.prog.BasePreds))
	for _, p := range v.prog.BasePreds {
		reads[codegen.BaseTable(p)] = true
	}
	ins := make(map[string][]rel.Tuple)
	del := make(map[string][]rel.Tuple)
	for _, td := range ev.Deltas {
		if !reads[td.Table] {
			continue
		}
		if len(td.Inserted) > 0 {
			ins[td.Table] = append(ins[td.Table], td.Inserted...)
		}
		if len(td.Deleted) > 0 {
			del[td.Table] = append(del[td.Table], td.Deleted...)
		}
	}

	m := &maint{d: d, v: v, temps: rtlib.NewTemps(fmt.Sprintf("mv%d_", atomic.AddUint64(&viewSeq, 1)))}
	// Best-effort: a failed scratch drop leaks a temp table until the
	// database closes, nothing worse.
	defer m.temps.DropAll(d) //nolint:errcheck
	if len(del) > 0 {
		if err := m.dred(del, tr.Root()); err != nil {
			return nil, err
		}
	}
	if len(ins) > 0 {
		if err := m.propagate(ins, tr.Root()); err != nil {
			return nil, err
		}
	}

	rows, err := d.Query("SELECT * FROM " + v.tableOf(v.prog.QueryPred))
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	tr.Root().SetInt("delta_tuples", int64(m.deltaTuples))
	tr.Root().SetInt("maintain_us", elapsed.Microseconds())
	tr.Finish()
	v.maintains.Add(1)
	v.lastDelta.Store(int64(m.deltaTuples))
	v.lastNs.Store(int64(elapsed))
	v.lastTrace.Store(tr)
	return rows.Tuples, nil
}

// maint is the working state of one maintenance run: the scratch temp
// tables it creates (base deltas, pre-state copies, deletion
// candidates) are dropped when the run ends, leaving only the view's
// accumulators.
type maint struct {
	d     *db.DB
	v     *View
	temps *rtlib.Temps
	// deltaTuples counts derived-relation changes applied: tuples
	// over-deleted plus delta tuples promoted into accumulators.
	deltaTuples int
}

// seed is round 0 of a delta loop driven by base-table deltas: every
// rule fired once per FROM position over a touched base table, reading
// that table's delta there.
func (m *maint) seed(dbase map[string]string) []rtlib.Firing {
	var fs []rtlib.Firing
	for _, r := range m.v.rules {
		for fi, f := range r.From {
			if _, derived := m.v.tables[f.Pred]; derived {
				continue
			}
			if dt, ok := dbase[codegen.BaseTable(f.Pred)]; ok {
				fs = append(fs, rtlib.Firing{Rule: r, Pos: fi, Delta: dt})
			}
		}
	}
	return fs
}

// materialize creates the scratch table hint+table with the base
// table's schema, holding the given tuples.
func (m *maint) materialize(hint, table string, tuples []rel.Tuple) (string, error) {
	t := m.d.Table(table)
	if t == nil {
		return "", fmt.Errorf("matview: base table %s vanished", table)
	}
	name, err := m.temps.Create(m.d, hint+table, t.Schema)
	if err != nil {
		return "", err
	}
	return name, m.d.InsertTuples(name, tuples)
}

// --- Insert propagation (semi-naive delta rules) ---

// propagate applies base-table insertions with rtlib's delta loop over
// every rule of the program, seeded at the touched base positions and
// reading the post-state elsewhere; later rounds differentiate the
// view's derived predicates into their accumulators. Monotonicity makes
// this sound and complete: lfp(post) = lfp(pre ∪ Δ) and every new
// derivation uses at least one new tuple in some position.
func (m *maint) propagate(ins map[string][]rel.Tuple, root *obs.Span) error {
	sp := root.Start("propagate")
	defer sp.End()
	base := 0
	for _, tus := range ins {
		base += len(tus)
	}
	sp.SetInt("inserted_base", int64(base))

	dbase := make(map[string]string, len(ins))
	for table, tuples := range ins {
		name, err := m.materialize("ins_", table, tuples)
		if err != nil {
			return err
		}
		dbase[table] = name
	}
	l := &rtlib.Loop{
		Rules:   m.v.rules,
		Preds:   m.v.preds,
		Read:    m.v.tableOf,
		Acc:     m.v.tables,
		Schemas: m.v.prog.Schemas,
		Seed:    m.seed(dbase),
	}
	promoted, rounds, err := l.Run(m.d, m.temps)
	if err != nil {
		return err
	}
	m.deltaTuples += promoted
	sp.SetInt("rounds", int64(rounds))
	sp.SetInt("delta_tuples", int64(m.deltaTuples))
	return nil
}

// --- Delete-and-Rederive ---

// dred applies base-table deletions with the DRed algorithm:
//
//  1. reconstruct pre-state for each deleted-from base table
//     (post ∪ deleted — the accumulators are still pre-state);
//  2. over-delete: propagate deletion candidates through the delta
//     rules against the pre-state, to a fixpoint;
//  3. remove the candidates (except magic seeds, which are axioms of
//     the program) from the accumulators;
//  4. re-derive survivors: one-step rule evaluation over the now
//     post-state relations, re-inserting any candidate that is still
//     derivable, to a fixpoint.
func (m *maint) dred(del map[string][]rel.Tuple, root *obs.Span) error {
	sp := root.Start("dred")
	defer sp.End()
	base := 0
	for _, tus := range del {
		base += len(tus)
	}
	sp.SetInt("deleted_base", int64(base))

	// Pre-state copies and delta tables for the deleted facts.
	dbase := make(map[string]string, len(del))
	pre := make(map[string]string, len(del))
	for table, tuples := range del {
		dt, err := m.materialize("del_", table, tuples)
		if err != nil {
			return err
		}
		dbase[table] = dt
		pt, err := m.materialize("pre_", table, nil)
		if err != nil {
			return err
		}
		if err := m.d.Exec(fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", pt, table)); err != nil {
			return err
		}
		if err := m.d.InsertTuples(pt, tuples); err != nil {
			return err
		}
		pre[table] = pt
	}
	preOf := func(pred string) string {
		if t, ok := m.v.tables[pred]; ok {
			return t // accumulators are still pre-state here
		}
		bt := codegen.BaseTable(pred)
		if p, ok := pre[bt]; ok {
			return p
		}
		return bt
	}

	// Over-delete: the delta loop against the pre-state, accumulating
	// deletion candidates per derived predicate.
	acc := make(map[string]string, len(m.v.preds))
	for _, p := range m.v.preds {
		t, err := m.temps.Create(m.d, "dd_"+p, m.v.prog.Schemas[p])
		if err != nil {
			return err
		}
		acc[p] = t
	}
	l := &rtlib.Loop{
		Rules:   m.v.rules,
		Preds:   m.v.preds,
		Read:    preOf,
		Acc:     acc,
		Schemas: m.v.prog.Schemas,
		Seed:    m.seed(dbase),
	}
	if _, _, err := l.Run(m.d, m.temps); err != nil {
		return err
	}

	// Apply: delete the candidates from the accumulators, protecting
	// seeds (they are facts of the program, never derived).
	seeds := make(map[string]map[string]bool, len(m.v.prog.Seeds))
	for _, s := range m.v.prog.Seeds {
		if seeds[s.Pred] == nil {
			seeds[s.Pred] = make(map[string]bool)
		}
		seeds[s.Pred][s.Tuple.Key()] = true
	}
	candidates := make(map[string]map[string]rel.Tuple, len(acc))
	overDeleted := 0
	for p, t := range acc {
		rows, err := m.d.Query("SELECT * FROM " + t)
		if err != nil {
			return err
		}
		if len(rows.Tuples) == 0 {
			continue
		}
		victims := make(map[string]rel.Tuple, len(rows.Tuples))
		for _, tu := range rows.Tuples {
			k := tu.Key()
			if seeds[p][k] {
				continue
			}
			victims[k] = tu
		}
		n, err := deleteMatching(m.d, m.v.tableOf(p), victims)
		if err != nil {
			return err
		}
		overDeleted += n
		if n > 0 {
			candidates[p] = victims
		}
	}
	m.deltaTuples += overDeleted
	sp.SetInt("overdeleted", int64(overDeleted))

	// Re-derive survivors: one-step consequences over the post-state,
	// intersected with the candidate sets (Go-side — the SQL dialect
	// has no subqueries), to a fixpoint.
	rederived := 0
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		for _, r := range m.v.rules {
			cand := candidates[r.Head]
			if len(cand) == 0 {
				continue
			}
			rows, err := m.d.Query(r.SQL(m.v.tableOf))
			if err != nil {
				return fmt.Errorf("matview: re-derive rule %q: %w", r.Source, err)
			}
			var back []rel.Tuple
			for _, tu := range rows.Tuples {
				k := tu.Key()
				if _, ok := cand[k]; !ok {
					continue
				}
				back = append(back, tu)
				delete(cand, k)
			}
			if len(back) == 0 {
				continue
			}
			if err := m.d.InsertTuples(m.v.tableOf(r.Head), back); err != nil {
				return err
			}
			rederived += len(back)
			changed = true
		}
	}
	m.deltaTuples += rederived
	sp.SetInt("rederived", int64(rederived))
	sp.SetInt("rounds", int64(rounds))
	return nil
}

// deleteMatching removes the rows whose keys appear in victims from a
// table, in one scan (the dialect's DELETE takes only literal
// conjunctions, so per-tuple statements would rescan per victim). It
// returns how many rows actually left the table — candidates a magic
// program never materialized simply do not match.
func deleteMatching(d *db.DB, table string, victims map[string]rel.Tuple) (int, error) {
	t := d.Table(table)
	if t == nil {
		return 0, fmt.Errorf("matview: view relation %s vanished", table)
	}
	type victim struct {
		rid storage.RID
		tu  rel.Tuple
	}
	var hit []victim
	err := t.Scan(func(rid storage.RID, tu rel.Tuple) error {
		if _, ok := victims[tu.Key()]; ok {
			hit = append(hit, victim{rid, tu})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, vx := range hit {
		if err := t.DeleteRID(vx.rid, vx.tu); err != nil {
			return len(hit), err
		}
	}
	return len(hit), nil
}
