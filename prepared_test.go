package dkbms

import (
	"errors"
	"testing"

	"dkbms/internal/dlog"
)

func TestPreparedQueryReuse(t *testing.T) {
	tb := familyTB(t)
	p, err := tb.Prepare("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Recompiles != 1 {
		t.Fatalf("Recompiles = %d after Prepare", p.Recompiles)
	}
	for i := 0; i < 3; i++ {
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)")
	}
	if p.Recompiles != 1 {
		t.Fatalf("Recompiles = %d after repeated Run", p.Recompiles)
	}
	if p.Stale() {
		t.Fatal("fresh prepared query reports stale")
	}
}

func TestPreparedSeesNewFacts(t *testing.T) {
	// Appending facts to an existing relation must NOT invalidate the
	// program but MUST be visible to the next Run.
	tb := familyTB(t)
	p, err := tb.Prepare("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.MustLoad("parent(lea, zoe).")
	if p.Stale() {
		t.Fatal("fact append invalidated the prepared query")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)", "(zoe)")
	if p.Recompiles != 1 {
		t.Fatalf("Recompiles = %d", p.Recompiles)
	}
}

func TestPreparedInvalidatedByRuleChange(t *testing.T) {
	tb := familyTB(t)
	p, err := tb.Prepare("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A new rule extends ancestor through marriage.
	tb.MustLoad(`
married(john, jane).
married(jane, john).
ancestor(X, Y) :- married(X, Z), parent(Z, Y).
`)
	if !p.Stale() {
		t.Fatal("rule addition did not invalidate")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.Recompiles != 2 {
		t.Fatalf("Recompiles = %d", p.Recompiles)
	}
	// john's descendants unchanged (jane has no separate children) but
	// the program recompiled against 3 rules.
	if res.Compile.RelevantRules != 3 {
		t.Fatalf("R_r = %d", res.Compile.RelevantRules)
	}
}

func TestPreparedInvalidatedByUpdate(t *testing.T) {
	tb := familyTB(t)
	p, err := tb.Prepare("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	if !p.Stale() {
		t.Fatal("Update did not invalidate")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)")
}

func TestPreparedInvalidatedByNewFactRelation(t *testing.T) {
	// Creating a fact relation for a predicate that also has rules
	// changes the compiled program (mixed normalization) — must
	// invalidate.
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
friend(ann, carl).
knows(X, Y) :- friend(X, Y).
`)
	p, err := tb.Prepare("?- knows(ann, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRowsP(t, p, "(carl)")
	tb.MustLoad("knows(ann, bob).") // first fact for knows: new relation
	if !p.Stale() {
		t.Fatal("new fact relation did not invalidate")
	}
	sameRowsP(t, p, "(carl)", "(bob)")
}

func sameRowsP(t *testing.T, p *Prepared, want ...string) {
	t.Helper()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, want...)
}

func TestPreparedParseError(t *testing.T) {
	tb := familyTB(t)
	if _, err := tb.Prepare("?- nonsense(", nil); !errors.Is(err, ErrParse) {
		t.Fatalf("bad query: err = %v, want ErrParse", err)
	}
	c := NewConcurrent(NewMemory())
	defer c.Close()
	if err := c.Prepare("?- nonsense(", nil); !errors.Is(err, ErrParse) {
		t.Fatalf("concurrent bad query: err = %v, want ErrParse", err)
	}
}

// TestQueryIDOnEveryPath: every entry point that runs a query stamps a
// query ID into the result (minted when the caller supplies none) and,
// when traced, onto the trace root.
func TestQueryIDOnEveryPath(t *testing.T) {
	tb := familyTB(t)
	const src = "?- ancestor(john, W)."
	p, err := tb.Prepare(src, &QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := dlog.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := tb.Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*QueryResult, error){
		"Prepared.Run": p.Run,
		"Evaluate":     func() (*QueryResult, error) { return tb.Evaluate(compiled, &QueryOptions{Trace: true}) },
		"Query":        func() (*QueryResult, error) { return tb.Query(src, &QueryOptions{Trace: true}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.QueryID == 0 {
			t.Errorf("%s: QueryID = 0, want a minted ID", name)
		}
		if id, ok := res.Trace.Root().Int("query_id"); !ok || uint64(id) != res.QueryID {
			t.Errorf("%s: trace query_id = %d (set %v), want %d", name, id, ok, res.QueryID)
		}
	}
	const qid = 0x5eed
	res, err := tb.Evaluate(compiled, &QueryOptions{QueryID: qid})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != qid {
		t.Errorf("Evaluate: QueryID = %#x, want the caller's %#x", res.QueryID, qid)
	}
}
