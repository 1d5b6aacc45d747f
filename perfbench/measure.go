package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dkbms"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/matview"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
	"dkbms/internal/snapshot"
	"dkbms/internal/storage"
)

// maxFailureNotes bounds how many failure messages the record keeps.
const maxFailureNotes = 8

// phase collects one timed phase: operation counts, latency samples by
// operation class, the benchmark's spans (tr, nil when untraced) and the
// per-layer accumulators the traced run reports.
type phase struct {
	tr       *obs.Trace
	start    time.Time
	deadline time.Time
	elapsed  time.Duration
	// primary names the sample class behind op_p50_ms; window is how
	// many consecutive primary samples make one measurement window.
	primary string
	window  int

	attempted atomic.Int64
	failed    atomic.Int64
	completed atomic.Int64

	mu      sync.Mutex
	samples map[string][]time.Duration
	// at holds each sample's completion offset from the phase start,
	// parallel to samples; doneAt holds every completed operation's.
	at       map[string][]time.Duration
	doneAt   []time.Duration
	failMsgs []string
	// sums and counts accumulate per-layer values; the reported metric
	// is sum/count (count 0 reports 0: the layer did no such work).
	sums   map[string]float64
	counts map[string]float64
	// evalKeys counts evaluations per (query text, snapshot generation).
	evalKeys map[string]int
	// backlogMax is the largest snapshot reclaim backlog seen after a
	// commit.
	backlogMax int64
	// answerRows sums the rows of every answer returned.
	answerRows int64
	// commits counts committed writes.
	commits int64
	// distinctTexts is the number of distinct query texts the phase
	// posed (the plan-cache key population).
	distinctTexts int

	before, after counters
	probe         probeInput

	setupS, liveHeapMB float64
	storePages         int64
	notes              map[string]any
}

func newPhase(tr *obs.Trace) *phase {
	return &phase{
		tr:       tr,
		samples:  make(map[string][]time.Duration),
		at:       make(map[string][]time.Duration),
		sums:     make(map[string]float64),
		counts:   make(map[string]float64),
		evalKeys: make(map[string]int),
		notes:    make(map[string]any),
	}
}

func (ph *phase) done() bool { return !time.Now().Before(ph.deadline) }

// ok records a completed operation of the given class.
func (ph *phase) ok(class string, d time.Duration) {
	ph.attempted.Add(1)
	ph.completed.Add(1)
	ph.mu.Lock()
	ph.doneAt = append(ph.doneAt, time.Since(ph.start))
	ph.record(class, d)
	ph.mu.Unlock()
}

// sample records a latency under an extra class without counting an
// operation (per-kind breakdowns of one operation class).
func (ph *phase) sample(class string, d time.Duration) {
	ph.mu.Lock()
	ph.record(class, d)
	ph.mu.Unlock()
}

// record appends a sample with its completion offset; ph.mu is held, so
// the offsets of every class are in completion order.
func (ph *phase) record(class string, d time.Duration) {
	ph.samples[class] = append(ph.samples[class], d)
	ph.at[class] = append(ph.at[class], time.Since(ph.start))
}

// fail records an operation that errored or returned a wrong answer.
func (ph *phase) fail(format string, args ...any) {
	ph.attempted.Add(1)
	ph.failed.Add(1)
	ph.mu.Lock()
	if len(ph.failMsgs) < maxFailureNotes {
		ph.failMsgs = append(ph.failMsgs, fmt.Sprintf(format, args...))
	}
	ph.mu.Unlock()
}

// check records a failed end-of-run check without counting an operation.
func (ph *phase) check(format string, args ...any) {
	ph.failed.Add(1)
	ph.mu.Lock()
	if len(ph.failMsgs) < maxFailureNotes {
		ph.failMsgs = append(ph.failMsgs, fmt.Sprintf(format, args...))
	}
	ph.mu.Unlock()
}

// add accumulates one observation of a per-layer value.
func (ph *phase) add(name string, v float64) {
	ph.mu.Lock()
	ph.sums[name] += v
	ph.counts[name]++
	ph.mu.Unlock()
}

// addRows counts answer rows returned to a caller.
func (ph *phase) addRows(n int) {
	ph.mu.Lock()
	ph.answerRows += int64(n)
	ph.mu.Unlock()
}

// evaluated records that a query text was evaluated (not served from a
// memoized answer) at a snapshot generation.
func (ph *phase) evaluated(text string, gen uint64) {
	ph.mu.Lock()
	ph.evalKeys[fmt.Sprintf("%d|%s", gen, text)]++
	ph.mu.Unlock()
}

// committed records one successful write and the reclaim backlog after it.
func (ph *phase) committed(backlog int64) {
	ph.mu.Lock()
	ph.commits++
	if backlog > ph.backlogMax {
		ph.backlogMax = backlog
	}
	ph.mu.Unlock()
}

func (ph *phase) correct() bool { return ph.failed.Load() == 0 }

func (ph *phase) ops() int64 { return ph.completed.Load() }

func (ph *phase) failures() []string {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return append([]string(nil), ph.failMsgs...)
}

// sampleCounts reports the sample count behind every class's percentiles.
func (ph *phase) sampleCounts() map[string]int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	out := make(map[string]int, len(ph.samples)+1)
	for k, v := range ph.samples {
		out[k] = len(v)
	}
	out["op"] = len(ph.samples[ph.primary])
	return out
}

// classQuantile returns the q-quantile of a class's samples in ms.
func (ph *phase) classQuantile(class string, q float64) float64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return quantileMS(ph.samples[class], q)
}

// windows cuts the phase into windows of ph.window consecutive primary
// samples and returns each window's p50 of those samples (ms) and its
// rate of completed operations (1/s). A window spans from the previous
// window's last primary sample to its own. The trailing partial window
// is dropped; a phase too short for one whole window is one window.
func (ph *phase) windows() (p50, rate []float64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	s, at := ph.samples[ph.primary], ph.at[ph.primary]
	n := ph.window
	if n < 1 || len(s) < n {
		return []float64{quantileMS(s, 0.5)}, []float64{float64(len(ph.doneAt)) / ph.elapsed.Seconds()}
	}
	var lo time.Duration
	done := 0 // operations completed up to lo
	for i := n; i <= len(s); i += n {
		hi := at[i-1]
		end := sort.Search(len(ph.doneAt), func(j int) bool { return ph.doneAt[j] > hi })
		if hi > lo {
			p50 = append(p50, quantileMS(s[i-n:i], 0.5))
			rate = append(rate, float64(end-done)/(hi-lo).Seconds())
		}
		lo, done = hi, end
	}
	return p50, rate
}

// endToEnd computes the untraced metrics every workload reports. The
// timings are medians over the phase's windows, so a stretch in which
// the host runs slow moves them only if it covers half the windows.
func (ph *phase) endToEnd() map[string]metric {
	p50, rate := ph.windows()
	return map[string]metric{
		"setup_s":      {ph.setupS, "s"},
		"ops_per_s":    {median(rate), "1/s"},
		"op_p50_ms":    {median(p50), "ms"},
		"live_heap_mb": {ph.liveHeapMB, "MiB"},
		"store_mb":     {float64(ph.storePages*storage.PageSize) / (1 << 20), "MiB"},
	}
}

// classDetail renders every sample class's latency quantiles with the
// sample count behind each, keeping only percentiles with at least ten
// samples beyond them.
func (ph *phase) classDetail() []string {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	var out []string
	for class, s := range ph.samples {
		line := fmt.Sprintf("%s n=%d p50=%.4fms", class, len(s), quantileMS(s, 0.5))
		for _, q := range []float64{0.90, 0.99} {
			if float64(len(s))*(1-q) >= 10 {
				line += fmt.Sprintf(" p%d=%.4fms", int(q*100), quantileMS(s, q))
			}
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// quantileMS returns the q-quantile (nearest rank) of durations in ms.
func quantileMS(s []time.Duration, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(c[i]) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// liveHeapMB forces a collection and returns the heap still retained.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// counters is one reading of the program's public counters. Workloads
// fill the parts their D/KB exposes; the rest stay zero.
type counters struct {
	db   db.Stats
	pool storage.PagerStats
	// tables holds heap and index traffic per base table or index.
	tables map[string]tableTraffic
	plan   dkbms.PlanCacheStats
	snap   snapshot.Stats
	mv     matview.Stats
	sched  sched.Stats
	// bytesOut is the server's reply byte counter.
	bytesOut    int64
	allocs, gcs uint64
}

// tableTraffic is one table's or index's traffic counters.
type tableTraffic struct{ pagesScanned, searches, depth int64 }

// trafficDelta sums per-table counter deltas. A commit that shadow-copies
// a table starts the new version's counters at zero, so a counter that
// went down counts its value since the restart: on workloads with
// commits the figure is a lower bound. Tables dropped during the phase
// (the run-time library's temporaries) are not counted.
func trafficDelta(before, after map[string]tableTraffic) tableTraffic {
	d := func(a, b int64) int64 {
		if a >= b {
			return a - b
		}
		return a
	}
	var out tableTraffic
	for name, a := range after {
		b := before[name]
		out.pagesScanned += d(a.pagesScanned, b.pagesScanned)
		out.searches += d(a.searches, b.searches)
		out.depth += d(a.depth, b.depth)
	}
	return out
}

// readRuntime fills the Go runtime part of a counter reading.
func (c *counters) readRuntime() {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	c.allocs, c.gcs = s[0].Value.Uint64(), s[1].Value.Uint64()
}

// readEngine sums heap and index traffic over the engine metrics a
// ConcurrentTestbed publishes.
func (c *counters) readEngine(ms []obs.Metric) {
	c.tables = make(map[string]tableTraffic)
	for _, m := range ms {
		i := strings.LastIndexByte(m.Name, '.')
		if i < 0 {
			continue
		}
		key, field := m.Name[:i], m.Name[i+1:]
		t := c.tables[key]
		switch field {
		case "heap_pages_scanned":
			t.pagesScanned = m.Value
		case "searches":
			t.searches = m.Value
		case "depth_total":
			t.depth = m.Value
		default:
			continue
		}
		c.tables[key] = t
	}
}

// readTables sums heap and index traffic over a plain testbed's base
// tables (temp tables are dropped by the time the phase ends, so their
// traffic is not included).
func (c *counters) readTables(d *db.DB) {
	c.tables = make(map[string]tableTraffic)
	cat := d.Catalog()
	for _, name := range cat.Tables() {
		t := cat.Table(name)
		if t == nil || t.Temp {
			continue
		}
		c.tables["table."+name] = tableTraffic{pagesScanned: t.Heap.Stats().PagesScanned}
		for _, ix := range t.Indexes {
			ts := ix.Stats()
			c.tables["index."+ix.Name] = tableTraffic{searches: ts.Searches, depth: ts.DepthTotal}
		}
	}
}

// ratio divides, reporting 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerNames lists every per-layer metric with its unit; the traced
// run reports all of them on every workload (0 where the layer did no
// such work).
var perLayerNames = []struct{ name, unit string }{
	{"dlog.parse_us", "us"},
	{"core.compile_us", "us"},
	{"core.relevant_rules", "count"},
	{"stored.extract_us", "us"},
	{"stored.readdict_us", "us"},
	{"magic.rewrite_us", "us"},
	{"pcg.evalorder_us", "us"},
	{"typeinf.typecheck_us", "us"},
	{"codegen.codegen_us", "us"},
	{"rtlib.eval_us", "us"},
	{"rtlib.temptable_us", "us"},
	{"rtlib.rule_eval_us", "us"},
	{"rtlib.termcheck_us", "us"},
	{"rtlib.iterations", "count"},
	{"rtlib.inserted_per_answer", "ratio"},
	{"db.selects_per_op", "count"},
	{"db.ddl_per_op", "count"},
	{"db.deletes_per_op", "count"},
	{"exec.setop_rows_per_query", "count"},
	{"exec.join_rows_per_query", "count"},
	{"exec.scan_rows_per_query", "count"},
	{"sql.parse_us", "us"},
	{"rel.tuple_key_ns", "ns"},
	{"rel.decode_ns", "ns"},
	{"storage.page_insert_ns", "ns"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.pool_misses_per_op", "count"},
	{"storage.pool_evictions_per_op", "count"},
	{"storage.pool_writes_per_op", "count"},
	{"storage.pages_scanned_per_op", "count"},
	{"index.searches_per_op", "count"},
	{"index.depth_avg", "count"},
	{"plancache.result_hit_ratio", "ratio"},
	{"plancache.misses_per_key", "count"},
	{"plancache.plan_hits_per_commit", "count"},
	{"plancache.evals_per_key_gen", "count"},
	{"snapshot.commit_us", "us"},
	{"snapshot.writer_stall_us_per_commit", "us"},
	{"snapshot.copied_tables_per_commit", "count"},
	{"snapshot.reclaim_backlog_max", "count"},
	{"matview.maintain_us_per_commit", "us"},
	{"matview.delta_tuples_per_commit", "count"},
	{"matview.incremental_share", "ratio"},
	{"matview.errors", "count"},
	{"stored.update_us", "us"},
	{"sched.tasks_per_op", "count"},
	{"sched.stolen_share", "ratio"},
	{"server.service_p50_us", "us"},
	{"wire.overhead_p50_us", "us"},
	{"wire.bytes_per_read", "bytes"},
	{"wire.result_codec_us", "us"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_per_s", "1/s"},
}

// selfLayers are the layers the self-time breakdown reports, in the
// order README.md lists them.
var selfLayers = []string{
	"bench", "dlog", "core", "stored", "magic", "pcg", "typeinf", "codegen",
	"rtlib", "snapshot", "matview", "plancache", "server", "wire",
}

// perLayer derives the traced phase's per-layer metrics from the counter
// deltas and the accumulators. It runs after the phase's goroutines have
// finished.
func (ph *phase) perLayer() map[string]metric {
	b, a := ph.before, ph.after
	ops := float64(ph.ops())
	tt := trafficDelta(b.tables, a.tables)
	commits := float64(ph.commits)
	vals := map[string]float64{
		"rtlib.inserted_per_answer":           ratio(float64(a.db.InsertedRows-b.db.InsertedRows), float64(ph.answerRows)),
		"db.selects_per_op":                   ratio(float64(a.db.Selects-b.db.Selects), ops),
		"db.ddl_per_op":                       ratio(float64(a.db.DDL-b.db.DDL), ops),
		"db.deletes_per_op":                   ratio(float64(a.db.Deletes-b.db.Deletes), ops),
		"storage.pool_hit_ratio":              ratio(float64(a.pool.Hits-b.pool.Hits), float64(a.pool.Hits-b.pool.Hits+a.pool.Misses-b.pool.Misses)),
		"storage.pool_misses_per_op":          ratio(float64(a.pool.Misses-b.pool.Misses), ops),
		"storage.pool_evictions_per_op":       ratio(float64(a.pool.Evictions-b.pool.Evictions), ops),
		"storage.pool_writes_per_op":          ratio(float64(a.pool.Writes-b.pool.Writes), ops),
		"storage.pages_scanned_per_op":        ratio(float64(tt.pagesScanned), ops),
		"index.searches_per_op":               ratio(float64(tt.searches), ops),
		"index.depth_avg":                     ratio(float64(tt.depth), float64(tt.searches)),
		"plancache.misses_per_key":            ratio(float64(a.plan.Misses-b.plan.Misses), float64(ph.distinctTexts)),
		"plancache.plan_hits_per_commit":      ratio(float64(a.plan.PlanHits-b.plan.PlanHits), commits),
		"snapshot.copied_tables_per_commit":   ratio(float64(a.snap.CopiedTables-b.snap.CopiedTables), commits),
		"snapshot.writer_stall_us_per_commit": ratio(float64(a.snap.WriterStall-b.snap.WriterStall)/1e3, commits),
		"snapshot.reclaim_backlog_max":        float64(ph.backlogMax),
		"matview.maintain_us_per_commit":      ratio(float64(a.mv.MaintainTime-b.mv.MaintainTime)/1e3, commits),
		"matview.delta_tuples_per_commit":     ratio(float64(a.mv.DeltaTuples-b.mv.DeltaTuples), commits),
		"matview.incremental_share": ratio(float64(a.mv.Maintained-b.mv.Maintained),
			float64(a.mv.Maintained-b.mv.Maintained+a.mv.Rederives-b.mv.Rederives)),
		"matview.errors":      float64(a.mv.Errors - b.mv.Errors),
		"sched.tasks_per_op":  ratio(float64(a.sched.Submitted-b.sched.Submitted), ops),
		"sched.stolen_share":  ratio(float64(a.sched.Stolen-b.sched.Stolen), float64(a.sched.Submitted-b.sched.Submitted)),
		"wire.bytes_per_read": ratio(float64(a.bytesOut-b.bytesOut), float64(len(ph.samples["read"]))),
		"go.alloc_kb_per_op":  ratio(float64(a.allocs-b.allocs)/1024, ops),
		"go.gc_per_s":         float64(a.gcs-b.gcs) / ph.elapsed.Seconds(),
	}
	hits := a.plan.ResultHits - b.plan.ResultHits
	lookups := hits + a.plan.PlanHits - b.plan.PlanHits + a.plan.Misses - b.plan.Misses
	vals["plancache.result_hit_ratio"] = ratio(float64(hits), float64(lookups))
	vals["server.service_p50_us"] = ph.classQuantile("server.service", 0.5) * 1e3
	vals["wire.overhead_p50_us"] = ph.classQuantile("wire.overhead", 0.5) * 1e3
	var evals float64
	for _, n := range ph.evalKeys {
		evals += float64(n)
	}
	vals["plancache.evals_per_key_gen"] = ratio(evals, float64(len(ph.evalKeys)))
	for name, sum := range ph.sums {
		vals[name] = sum / ph.counts[name]
	}
	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// addCompile records a compilation's phase times (paper Table 4) and
// lays them out as child spans of sp, in pipeline order.
func (ph *phase) addCompile(sp *obs.Span, st core.CompileStats) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ph.add("core.compile_us", us(st.Total))
	ph.add("core.relevant_rules", float64(st.RelevantRules))
	phases := []phaseTime{
		{"stored.extract", st.Extract},
		{"stored.readdict", st.ReadDict},
		{"magic.rewrite", st.Rewrite},
		{"pcg.evalorder", st.EvalOrder},
		{"typeinf.typecheck", st.TypeCheck},
		{"codegen.codegen", st.CodeGen},
	}
	for _, p := range phases {
		ph.add(p.name+"_us", us(p.d))
	}
	childSpans(sp, phases)
}

// addEval records an evaluation's phase times (paper Table 5).
func (ph *phase) addEval(sp *obs.Span, res *dkbms.QueryResult) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ev := res.Eval
	ph.add("rtlib.eval_us", us(ev.Elapsed))
	ph.add("rtlib.temptable_us", us(ev.TempTable))
	ph.add("rtlib.rule_eval_us", us(ev.Eval))
	ph.add("rtlib.termcheck_us", us(ev.TermCheck))
	ph.add("rtlib.iterations", float64(res.Iterations()))
	childSpans(sp, []phaseTime{
		{"rtlib.temptable", ev.TempTable},
		{"rtlib.rule_eval", ev.Eval},
		{"rtlib.termcheck", ev.TermCheck},
	})
}

// phaseTime is a phase duration the program measured itself.
type phaseTime struct {
	name string
	d    time.Duration
}

// childSpans lays externally measured phase durations out as sequential
// child spans of sp, clipped to sp's interval.
func childSpans(sp *obs.Span, phases []phaseTime) {
	if sp == nil {
		return
	}
	off := sp.Offset
	end := sp.Offset + sp.Duration
	for _, p := range phases {
		d := p.d
		if off+d > end {
			d = end - off
		}
		if d <= 0 {
			continue
		}
		c := sp.Start(p.name)
		c.Offset = off
		c.SetDuration(d)
		off += d
	}
}

// selfTimes attributes every span's self time (its duration minus the
// part of it its children cover) to the span's layer, the name prefix
// before the first dot, and reports it per operation.
func selfTimes(root *obs.Span, ops int64) map[string]metric {
	self := make(map[string]time.Duration)
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		covered := coverage(s)
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		} else {
			layer = "bench"
		}
		self[layer] += s.Duration - covered
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, c := range root.Children {
		walk(c)
	}
	out := make(map[string]metric, len(selfLayers))
	for _, l := range selfLayers {
		out["self."+l+"_us_per_op"] = metric{ratio(float64(self[l])/1e3, float64(ops)), "us"}
	}
	return out
}

// coverage returns how much of s's interval its children cover.
func coverage(s *obs.Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	lo, hi := s.Offset, s.Offset+s.Duration
	var ivs []iv
	for _, c := range s.Children {
		a, b := c.Offset, c.Offset+c.Duration
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// addOperatorRows sums the rows emitted per operator kind in a program
// trace (QueryOptions.Trace) and records them per query.
func (ph *phase) addOperatorRows(root *obs.Span) {
	var setop, join, scan int64
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if rows, ok := s.Int("rows"); ok {
			switch {
			case s.Name == "union" || s.Name == "union-all" || s.Name == "except" || s.Name == "intersect":
				setop += rows
			case strings.HasSuffix(s.Name, "join") || strings.HasPrefix(s.Name, "idxjoin("):
				join += rows
			case strings.HasPrefix(s.Name, "scan(") || strings.HasPrefix(s.Name, "idxscan("):
				scan += rows
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	ph.add("exec.setop_rows_per_query", float64(setop))
	ph.add("exec.join_rows_per_query", float64(join))
	ph.add("exec.scan_rows_per_query", float64(scan))
}

// probeInput is the workload material the leaf-layer replay probes run
// on: answer tuples, base tuples with their schema, generated rule SQL,
// query and program texts and returned answers.
type probeInput struct {
	tuples   []rel.Tuple
	schema   *rel.Schema
	sql      []string
	queries  []string
	programs []string
	answers  []*dkbms.QueryResult
}

// record is the run record printed before the result line.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Host       string         `json:"host"`
	PoolPages  int64          `json:"pool_pages"`
	StorePages int64          `json:"store_pages"`
	Samples    map[string]int `json:"samples"`
	Detail     []string       `json:"detail"`
	Failures   []string       `json:"failures,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
	Notes      map[string]any `json:"notes"`
}

func newRecord(name string, cfg config) *record {
	host, _ := os.Hostname() // informational only
	return &record{
		Workload:   name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Traced:     cfg.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Host:       host,
		PoolPages:  storage.DefaultPoolPages,
		Notes:      make(map[string]any),
	}
}
