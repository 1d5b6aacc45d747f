package rtlib

import (
	"fmt"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// evalCliqueNaive computes the least fixed point of a clique by naive
// iteration: R_{k+1} = f(R_k) recomputed from scratch each round,
// terminating when f adds nothing new. The implementation follows the
// paper's embedded-SQL realization: fresh temporary tables per
// iteration, a set-difference termination check, and a full table copy
// to install each round's result.
func (ev *evaluator) evalCliqueNaive(node *codegen.Node, seeds map[string][]rel.Tuple, ns *NodeStats, sp *obs.Span) error {
	for _, p := range node.Preds {
		if err := ev.createPredTable(p, seeds, ns); err != nil {
			return err
		}
	}
	// Iteration 0 records the seed contents so per-iteration delta
	// cardinalities sum to the node's final tuple count.
	if sp != nil {
		zero := sp.Start("iteration 0")
		for _, p := range node.Preds {
			zero.SetInt("delta("+p+")", int64(ev.d.TableRows(ev.tableOf(p))))
		}
		zero.End()
	}
	rules := node.Rules()

	for {
		if err := ctxErr(ev.ctx); err != nil {
			return err
		}
		ns.Iterations++
		var itSp *obs.Span
		if sp != nil {
			itSp = sp.Start(fmt.Sprintf("iteration %d", ns.Iterations))
		}
		// new_p := f(R) for each predicate, into fresh tables.
		newNames := make(map[string]string, len(node.Preds))
		for _, p := range node.Preds {
			t0 := time.Now()
			name, err := ev.temps.Create(ev.d, fmt.Sprintf("new%d_%s", ns.Iterations, sanitize(p)), ev.prog.Schemas[p])
			if err != nil {
				return err
			}
			ns.TempTable += time.Since(t0)
			newNames[p] = name
			// Seeds are part of every f(R) application (they are facts
			// of the predicate).
			if err := ev.d.InsertTuples(name, seeds[p]); err != nil {
				return err
			}
		}
		for _, r := range rules {
			if err := ev.insertRule(newNames[r.Head], r, ns, itSp); err != nil {
				return err
			}
		}
		// Termination: f(R) added nothing beyond R. The check is the
		// full set difference the paper calls out as expensive under a
		// plain SQL interface. Under Parallel the hash backend computes
		// it Go-side instead.
		grew := false
		tcSp := itSp.Start("termcheck")
		for _, p := range node.Preds {
			var added int
			if ev.opts.Parallel && ev.parts > 1 {
				tcSp.SetInt("sched.partitions", int64(ev.parts))
				n, err := ev.hashDiff(newNames[p], ev.tableOf(p), ns)
				if err != nil {
					return err
				}
				added = n
			} else {
				t0 := time.Now()
				diff, err := ev.d.Query(fmt.Sprintf(
					"SELECT * FROM %s EXCEPT SELECT * FROM %s", newNames[p], ev.tableOf(p)))
				if err != nil {
					return err
				}
				ns.TermCheck += time.Since(t0)
				added = len(diff.Tuples)
			}
			if added > 0 {
				grew = true
			}
			if itSp != nil {
				itSp.SetInt("delta("+p+")", int64(added))
				itSp.SetInt("acc("+p+")", int64(ev.d.TableRows(newNames[p])))
			}
		}
		tcSp.End()
		itSp.End()
		// Install the new round: drop old tables, rename-by-copy (the
		// SQL interface has no rename, as the paper notes — copying is
		// part of the measured overhead).
		for _, p := range node.Preds {
			t0 := time.Now()
			old := ev.tableOf(p)
			if err := ev.d.Exec(fmt.Sprintf("DELETE FROM %s", old)); err != nil {
				return err
			}
			if err := ev.d.Exec(fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", old, newNames[p])); err != nil {
				return err
			}
			if err := ev.temps.Drop(ev.d, newNames[p]); err != nil {
				return err
			}
			ns.TempTable += time.Since(t0)
		}
		if !grew {
			return nil
		}
	}
}

// evalClique computes the least fixed point with the differential
// (semi-naive) method: the delta loop seeded with the exit rules and
// the magic seeds, differentiating the clique's predicates.
func (ev *evaluator) evalClique(node *codegen.Node, seeds map[string][]rel.Tuple, ns *NodeStats, sp *obs.Span) error {
	l := &Loop{
		Preds:      node.Preds,
		Read:       ev.tableOf,
		Acc:        make(map[string]string, len(node.Preds)),
		Schemas:    ev.prog.Schemas,
		SeedTuples: seeds,
	}
	for _, p := range node.Preds {
		if err := ev.createPredTable(p, nil, ns); err != nil {
			return err
		}
		l.Acc[p] = ev.tableOf(p)
	}
	for i := range node.ExitRules {
		l.Seed = append(l.Seed, Firing{Rule: &node.ExitRules[i], Pos: -1})
	}
	l.Rules = node.Rules()
	return ev.runLoop(l, ns, sp)
}

// hashDiff counts the tuples of newName absent from oldName, the naive
// termination set difference, with the hash backend: dedup fills a
// sharded set with the old relation, then admits only the new tuples.
func (ev *evaluator) hashDiff(newName, oldName string, ns *NodeStats) (int, error) {
	t0 := time.Now()
	newRows, err := ev.d.Query("SELECT * FROM " + newName)
	if err != nil {
		return 0, err
	}
	oldRows, err := ev.d.Query("SELECT * FROM " + oldName)
	if err != nil {
		return 0, err
	}
	ns.TermCheck += time.Since(t0)
	acc := map[string]accSet{"": newAccSet(ev.parts)}
	ev.dedup([]string{""}, [][]rel.Tuple{oldRows.Tuples}, acc, ns)
	added := 0
	for _, m := range ev.dedup([]string{""}, [][]rel.Tuple{newRows.Tuples}, acc, ns) {
		added += len(m[""])
	}
	return added, nil
}

// seedTuplesValid verifies seed arity/type against schemas before any
// table is created, so failures surface as clean errors.
func seedTuplesValid(prog *codegen.Program) error {
	for _, s := range prog.Seeds {
		sch := prog.Schemas[s.Pred]
		if sch == nil {
			return fmt.Errorf("rtlib: seed for unknown predicate %s", s.Pred)
		}
		if len(s.Tuple) != sch.Len() {
			return fmt.Errorf("rtlib: seed arity mismatch for %s", s.Pred)
		}
		for i, v := range s.Tuple {
			if v.Kind != sch.Col(i).Type {
				return fmt.Errorf("rtlib: seed type mismatch for %s column %d", s.Pred, i)
			}
		}
	}
	return nil
}
