package main

import (
	"time"

	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
	"dkbms/internal/wire"
)

// Leaf-layer replay probes: after the timed phase, replay the workload's
// own tuples, SQL, texts and answers through single leaf functions and
// report the cost per call. They cover the hot spots a whole-query
// profile names (slotted-page inserts, tuple keys) at a resolution the
// end-to-end latencies cannot give.

const (
	maxProbeAnswers = 64
	maxProbeSQL     = 256
	maxProbeTuples  = 4096
	// probeBudget is how long each probe replays its material.
	probeBudget = 60 * time.Millisecond
)

// timed replays fn over n items until the budget is spent and returns
// the mean cost per call.
func timed(n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

func runProbes(in probeInput) map[string]metric {
	out := make(map[string]metric)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d) }

	texts := append(append([]string(nil), in.queries...), in.programs...)
	out["dlog.parse_us"] = metric{us(timed(len(texts), func(i int) {
		if i < len(in.queries) {
			q, _ := dlog.ParseQuery(texts[i]) // texts parsed fine in the run
			sink += len(q.Goals)
		} else {
			p, _ := dlog.ParseProgram(texts[i])
			sink += len(p.Clauses)
		}
	})), "us"}
	out["sql.parse_us"] = metric{us(timed(len(in.sql), func(i int) {
		st, _ := sql.Parse(in.sql[i]) // generated SQL parses in the run
		if st != nil {
			sink++
		}
	})), "us"}

	tuples := in.tuples
	for _, a := range in.answers {
		tuples = append(tuples, a.Rows...)
	}
	out["rel.tuple_key_ns"] = metric{ns(timed(len(tuples), func(i int) {
		sink += len(tuples[i].Key())
	})), "ns"}

	recs := make([][]byte, len(in.tuples))
	for i, t := range in.tuples {
		recs[i] = t.Encode(nil)
	}
	out["rel.decode_ns"] = metric{ns(timed(len(recs), func(i int) {
		t, _ := rel.DecodeTuple(recs[i], in.schema) // records were encoded against schema
		sink += len(t)
	})), "ns"}

	pg := new(storage.Page)
	pg.Init()
	out["storage.page_insert_ns"] = metric{ns(timed(len(recs), func(i int) {
		if !pg.HasRoom(len(recs[i])) {
			pg.Init()
		}
		slot, _ := pg.Insert(recs[i]) // HasRoom was checked
		sink += slot
	})), "ns"}

	results := make([]wire.Result, len(in.answers))
	for i, a := range in.answers {
		results[i] = wire.Result{Vars: a.Vars, Rows: a.Rows, Optimized: a.Optimized, Strategy: a.Strategy.String()}
	}
	out["wire.result_codec_us"] = metric{us(timed(len(results), func(i int) {
		r, _ := wire.DecodeResult(results[i].Encode()) // a fresh encoding decodes
		if r != nil {
			sink += len(r.Rows)
		}
	})), "us"}
	return out
}

// twoStrings is the schema of the binary string relations every
// workload stores.
var twoStrings = func() *rel.Schema {
	s, err := rel.NewSchema(rel.Column{Name: "c0", Type: rel.TypeString}, rel.Column{Name: "c1", Type: rel.TypeString})
	if err != nil {
		panic(err)
	}
	return s
}()

// storePages returns the database's allocated page count.
func storePages(d *db.DB) int64 {
	cat := d.Catalog()
	for _, name := range cat.Tables() {
		if t := cat.Table(name); t != nil {
			return int64(t.Heap.Pager().PageCount())
		}
	}
	return 0
}
