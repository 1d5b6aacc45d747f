package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dkbms/internal/rel"
)

// spec is the part of BENCHMARK.json the smoke tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smallConfig(t *testing.T, name string, traced bool) config {
	return config{
		workload: name,
		seed:     7,
		seconds:  1500 * time.Millisecond,
		traced:   traced,
		small:    true,
		setups:   1,
		dir:      t.TempDir(),
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that it answers correctly and emits every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, rec, err := measure(w, smallConfig(t, w.name, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %v",
						traced, res.Correct, res.Attempted, res.Failed, rec.Failures)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: metric %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(rec.TraceFile); err != nil {
						t.Errorf("no Chrome trace: %v", err)
					}
				}
			}
		})
	}
}

// TestOracleRejectsWrongAnswers checks that the oracle flags a wrong
// expected answer as a failure, both in its checks and in a workload.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	rows := func(names []string) []rel.Tuple {
		out := make([]rel.Tuple, len(names))
		for i, n := range names {
			out[i] = rel.Tuple{rel.NewString(n)}
		}
		return out
	}
	if err := newAnswer(descendants(2, 4)).check(rows(descendants(2, 4))); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if err := newAnswer(descendants(2, 4)).check(rows(descendants(3, 4))); err == nil {
		t.Error("oracle accepted the descendants of the sibling")
	}
	if err := newAnswer(sameGeneration(5)).check(rows(sameGeneration(5)[1:])); err == nil {
		t.Error("oracle accepted an answer missing a row")
	}
	base := toSet(descendants(2, 4))
	if err := bounds(rows(descendants(2, 4)[1:]), base, func(string) bool { return true }); err == nil {
		t.Error("bounds accepted an answer missing a base row")
	}
	if err := bounds(rows(append(descendants(2, 4), "h1")), base, func(string) bool { return false }); err == nil {
		t.Error("bounds accepted a row that was never inserted")
	}

	cfg := smallConfig(t, "lfp-cold", false)
	inst, err := setupLFPCold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*lfpCold)
	ph := newPhase(nil)
	for _, q := range w.gen.block() {
		right := q.want
		q.want = func() answer { return append(right(), "t999999") }
		w.query(ph, q)
	}
	if ph.failed.Load() != ph.attempted.Load() || ph.correct() {
		t.Errorf("%d of %d queries failed with a wrong expected answer", ph.failed.Load(), ph.attempted.Load())
	}
	good := newPhase(nil)
	for _, q := range w.gen.block() {
		w.query(good, q)
	}
	if !good.correct() {
		t.Errorf("right expected answers failed: %v", good.failures())
	}
}

// TestServeMixedReadCheck checks that a served read is rejected when it
// keeps a retracted hot edge, shows a hot node outside the text's
// subtree, or misses an edge whose Load returned before the read.
func TestServeMixedReadCheck(t *testing.T) {
	const depth = 4
	base := descendants(2, depth) // ancestor(t2, W): leaves t8..t11
	text := smText{src: "?- ancestor(t2, W).", base: toSet(base)}
	at := time.Now()
	tick := func(n int) time.Time { return at.Add(time.Duration(n) * time.Millisecond) }
	w := &serveMixed{hot: map[string]*hotEdge{
		"h_live":    {leaf: "t8", loadStart: tick(0), loaded: tick(1)},
		"h_gone":    {leaf: "t9", loadStart: tick(0), loaded: tick(1), retractStart: tick(2), retracted: tick(3)},
		"h_outside": {leaf: "t12", loadStart: tick(0), loaded: tick(1)},
	}}
	rows := func(extra ...string) []rel.Tuple {
		var out []rel.Tuple
		for _, n := range append(append([]string(nil), base...), extra...) {
			out = append(out, rel.Tuple{rel.NewString(n)})
		}
		return out
	}
	if err := w.checkRead(text, rows("h_live"), tick(5), tick(6)); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if err := w.checkRead(text, rows(), tick(5), tick(6)); err == nil {
		t.Error("accepted a read missing an edge committed before it")
	}
	if err := w.checkRead(text, rows("h_live", "h_gone"), tick(5), tick(6)); err == nil {
		t.Error("accepted a read keeping an edge retracted before it")
	}
	if err := w.checkRead(text, rows("h_live", "h_gone"), tick(2), tick(6)); err != nil {
		t.Errorf("rejected a read racing a retract: %v", err)
	}
	if err := w.checkRead(text, rows("h_live", "h_outside"), tick(5), tick(6)); err == nil {
		t.Error("accepted a hot node outside the text's subtree")
	}
}
