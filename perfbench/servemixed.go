package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/server"
	"dkbms/internal/wire"
	"dkbms/internal/workload"
)

// serve-mixed: served traffic with writes alongside reads. The
// in-process server runs on loopback with default options over a
// ConcurrentTestbed with the default MaintAuto policy, as dkbd runs it;
// exactly two client connections (the host's CPU count) drive closed
// loops. Reads exercise the shared read path (wire framing, session,
// snapshot pin, result cache and view maintenance); hot commits force
// maintenance and re-evaluation, cold commits land on a relation no
// query reads.

const (
	smClients = 2
	// tracedSlowLog sizes the traced run's slow-query ring to hold every
	// read, so each read's server-side latency and cache outcome can be
	// joined to the client's span by query ID.
	tracedSlowLog = 1 << 18
	// smWindow is the measurement window: 5 blocks of reads per client.
	smWindow = smClients * 47 * 5
)

// smText is one hot query text and its base (write-free) answer.
type smText struct {
	src  string
	base map[string]bool
}

type serveMixed struct {
	sh     dataShape
	c      *dkbms.ConcurrentTestbed
	srv    *server.Server
	cancel context.CancelFunc
	served chan error
	cls    [smClients]*client.Client
	stmts  [smClients]map[string]*client.Stmt
	texts  []smText
	seed   int64

	mu sync.Mutex
	// hot holds every hot edge a client has asked to insert, by node.
	hot    map[string]*hotEdge
	audits int
	// spans pairs each traced read span with its query ID.
	spans []tracedRead
}

// hotEdge is one hot edge parent(leaf, node) and its history as the
// clients saw it. loadStart and retractStart are taken before the
// request is sent; loaded and retracted after it returned successfully.
// A zero time means not yet.
type hotEdge struct {
	leaf                                       string
	loadStart, loaded, retractStart, retracted time.Time
}

type tracedRead struct {
	sp  *obs.Span
	qid uint64
	src string
}

func setupServeMixed(cfg config) (instance, error) {
	sh := shapeFor(cfg)
	tb := dkbms.NewMemory()
	parent, up, flat := treeData(sh.depth)
	if err := loadRelations(tb, []relation{
		{"parent", parent, true}, {"up", up, true}, {"flat", flat, true}, {"audit", auditRows(0, 64), false},
	}); err != nil {
		tb.Close()
		return nil, err
	}
	if err := tb.Load(treeRules); err != nil {
		tb.Close()
		return nil, err
	}
	if _, err := tb.Update(); err != nil {
		tb.Close()
		return nil, err
	}
	w := &serveMixed{
		sh:     sh,
		c:      dkbms.NewConcurrent(tb),
		seed:   cfg.seed,
		hot:    make(map[string]*hotEdge),
		audits: 64,
	}
	opts := server.Options{}
	if cfg.traced {
		opts.SlowLogSize = tracedSlowLog
	}
	w.srv = server.New(w.c, opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.c.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.served = cancel, make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ctx, lis) }()
	for i := range w.cls {
		if w.cls[i], err = client.Dial(lis.Addr().String()); err != nil {
			w.close()
			return nil, err
		}
		w.stmts[i] = make(map[string]*client.Stmt)
	}
	w.texts = hotTexts(sh, rand.New(rand.NewSource(cfg.seed)))
	// Warm-up: every hot text is evaluated and memoized, and prepared on
	// every connection, before timing starts.
	for _, t := range w.texts {
		res, err := w.cls[0].Query(t.src, wire.QueryOpts{})
		if err == nil {
			err = bounds(res.Rows, t.base, func(string) bool { return false })
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", t.src, err)
		}
		for i, cl := range w.cls {
			st, err := cl.Prepare(t.src, wire.QueryOpts{})
			if err != nil {
				w.close()
				return nil, fmt.Errorf("prepare %s: %w", t.src, err)
			}
			w.stmts[i][t.src] = st
		}
	}
	return w, nil
}

// auditRows returns n cold audit rows numbered from first.
func auditRows(first, n int) []rel.Tuple {
	out := make([]rel.Tuple, n)
	for i := range out {
		out[i] = rel.Tuple{rel.NewString(fmt.Sprintf("a%d", first+i)), rel.NewString("ok")}
	}
	return out
}

// hotTexts draws the hot query population: bound ancestor and sg texts
// (3 ancestor per sg) at distinct seeded nodes of levels 6 and 7, so a
// re-evaluation of any hot text costs about the same and the read tail
// is one mode rather than a sweep.
func hotTexts(sh dataShape, rng *rand.Rand) []smText {
	seen := make(map[string]bool)
	var out []smText
	for len(out) < sh.hotTexts {
		level := sh.depth - 4 + rng.Intn(2)
		lo, hi := levelNodes(level)
		k := lo + rng.Intn(hi-lo+1)
		var t smText
		if len(out)%4 == 3 {
			t.src = fmt.Sprintf("?- sg(%s, W).", workload.TreeNode(k))
			t.base = toSet(sameGeneration(k))
		} else {
			t.src = fmt.Sprintf("?- ancestor(%s, W).", workload.TreeNode(k))
			t.base = toSet(descendants(k, sh.depth))
		}
		if !seen[t.src] {
			seen[t.src] = true
			out = append(out, t)
		}
	}
	return out
}

func toSet(v []string) map[string]bool {
	m := make(map[string]bool, len(v))
	for _, s := range v {
		m[s] = true
	}
	return m
}

func (w *serveMixed) close() error {
	for _, cl := range w.cls {
		if cl != nil {
			cl.Close()
		}
	}
	w.cancel()
	err := <-w.served
	if cerr := w.c.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *serveMixed) counters() counters {
	var c counters
	c.db = w.c.Testbed().DB().StatsSnapshot()
	c.pool = w.c.PagerStats()
	c.plan = w.c.PlanStats()
	c.snap = w.c.SnapshotStats()
	c.mv = w.c.MatViewStats()
	c.sched = w.c.SchedStats()
	for _, m := range w.srv.Registry().Snapshot() {
		switch m.Name {
		case "server.bytes_out":
			c.bytesOut = m.Value
		}
	}
	c.readEngine(w.c.EngineMetrics())
	c.readRuntime()
	return c
}

func (w *serveMixed) run(ph *phase) error {
	ph.primary, ph.window = "read", smWindow
	var wg sync.WaitGroup
	for i := range w.cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.drive(ph, i)
		}(i)
	}
	wg.Wait()
	ph.distinctTexts = len(w.texts)
	return nil
}

// drive is one client's closed loop. Each block of 50 operations holds,
// shuffled: 47 reads (Zipf-skewed over the hot texts, a random quarter
// through the client's prepared statement), one hot Load of a fresh
// edge under a random leaf, one Retract of this client's oldest live hot
// edge, and one cold Load into audit.
func (w *serveMixed) drive(ph *phase, id int) {
	rng := rand.New(rand.NewSource(w.seed*31 + int64(id)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.texts)-1))
	cl := w.cls[id]
	var mine []string // this client's live hot nodes, oldest first
	next := 0
	const (
		opRead = iota
		opHot
		opRetract
		opCold
	)
	var deck []int
	for !ph.done() {
		if len(deck) == 0 {
			for i := 0; i < 47; i++ {
				deck = append(deck, opRead)
			}
			deck = append(deck, opHot, opRetract, opCold)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		op := deck[0]
		deck = deck[1:]
		if op == opRetract && len(mine) == 0 {
			op = opRead
		}
		switch op {
		case opRead:
			w.read(ph, id, cl, w.texts[zipf.Uint64()], rng.Intn(4) == 0)
		case opHot:
			next++
			node := fmt.Sprintf("h%d_%d", id, next)
			lo, hi := levelNodes(w.sh.depth)
			e := &hotEdge{leaf: workload.TreeNode(lo + rng.Intn(hi-lo+1))}
			w.mu.Lock()
			e.loadStart = time.Now()
			w.hot[node] = e
			w.mu.Unlock()
			if w.write(ph, "commit.hot", func() error { return cl.Load(fmt.Sprintf("parent(%s, %s).", e.leaf, node)) }) {
				mine = append(mine, node)
				w.mu.Lock()
				e.loaded = time.Now()
				w.mu.Unlock()
			}
		case opRetract:
			node := mine[0]
			mine = mine[1:]
			w.mu.Lock()
			e := w.hot[node]
			e.retractStart = time.Now()
			w.mu.Unlock()
			if w.write(ph, "commit.retract", func() error {
				n, err := cl.Retract(fmt.Sprintf("parent(%s, %s)", e.leaf, node))
				if err == nil && n != 1 {
					err = fmt.Errorf("retract removed %d facts, want 1", n)
				}
				return err
			}) {
				w.mu.Lock()
				e.retracted = time.Now()
				w.mu.Unlock()
			}
		case opCold:
			w.mu.Lock()
			first := w.audits
			w.audits++
			w.mu.Unlock()
			t := auditRows(first, 1)[0]
			w.write(ph, "commit.cold", func() error {
				return cl.Load(fmt.Sprintf("audit(%s, %s).", t[0].Str, t[1].Str))
			})
		}
	}
}

// read poses one hot text over the wire and checks the answer against
// the base closure and the hot edges' histories.
func (w *serveMixed) read(ph *phase, id int, cl *client.Client, t smText, prepared bool) {
	qid := obs.NewQueryID()
	sp := ph.tr.Start("wire.read")
	start := time.Now()
	var res *wire.Result
	var err error
	if prepared {
		res, err = w.stmts[id][t.src].ExecWithQueryID(qid)
	} else {
		res, err = cl.Query(t.src, wire.QueryOpts{QueryID: qid})
	}
	end := time.Now()
	d := end.Sub(start)
	sp.End()
	if err == nil {
		err = w.checkRead(t, res.Rows, start, end)
	}
	if err != nil {
		ph.fail("%s: %v", t.src, err)
		return
	}
	ph.ok("read", d)
	ph.addRows(len(res.Rows))
	if ph.tr != nil {
		w.mu.Lock()
		w.spans = append(w.spans, tracedRead{sp, qid, t.src})
		w.mu.Unlock()
	}
}

// checkRead checks a read of t that started at t0 and returned at t1.
// Besides the base closure, a row may only be a hot node whose leaf is
// in the base closure, whose Load was sent before t1 and whose Retract
// had not returned by t0. Every hot node under the base closure whose
// Load returned before t0, and whose Retract was not sent before t1,
// must be present: a commit that has returned is visible to every read
// that starts after it.
func (w *serveMixed) checkRead(t smText, rows []rel.Tuple, t0, t1 time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	got := make(map[string]bool)
	err := bounds(rows, t.base, func(k string) bool {
		e := w.hot[k]
		ok := e != nil && t.base[e.leaf] && e.loadStart.Before(t1) &&
			(e.retracted.IsZero() || !e.retracted.Before(t0))
		got[k] = ok
		return ok
	})
	if err != nil {
		return err
	}
	for node, e := range w.hot {
		if t.base[e.leaf] && !e.loaded.IsZero() && e.loaded.Before(t0) &&
			(e.retractStart.IsZero() || !e.retractStart.Before(t1)) && !got[node] {
			return fmt.Errorf("hot node %s under %s committed before the read but missing", node, e.leaf)
		}
	}
	return nil
}

// write runs one commit over the wire and reports whether it succeeded.
func (w *serveMixed) write(ph *phase, class string, fn func() error) bool {
	sp := ph.tr.Start("snapshot.commit")
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.End()
	if err != nil {
		ph.fail("%s: %v", class, err)
		return false
	}
	ph.ok("commit", d)
	ph.sample(class, d)
	ph.add("snapshot.commit_us", float64(d)/1e3)
	ph.committed(w.c.SnapshotStats().ReclaimBacklog)
	return true
}

// finish checks every hot text against a fresh plain-Testbed evaluation
// of the final fact set, then joins traced reads to the server's
// slow-query records.
func (w *serveMixed) finish(ph *phase) error {
	ref := dkbms.NewMemory()
	defer ref.Close()
	parent, up, flat := treeData(w.sh.depth)
	w.mu.Lock()
	for node, e := range w.hot {
		if !e.loaded.IsZero() && e.retracted.IsZero() {
			parent = append(parent, rel.Tuple{rel.NewString(e.leaf), rel.NewString(node)})
		}
	}
	w.mu.Unlock()
	if err := loadRelations(ref, []relation{{"parent", parent, false}, {"up", up, false}, {"flat", flat, false}}); err != nil {
		return err
	}
	if err := ref.Load(treeRules); err != nil {
		return err
	}
	for _, t := range w.texts {
		got, err := w.cls[0].Query(t.src, wire.QueryOpts{})
		if err != nil {
			ph.check("final %s: %v", t.src, err)
			continue
		}
		want, err := ref.Query(t.src, nil)
		if err != nil {
			return err
		}
		keys := make([]string, len(want.Rows))
		for i, r := range want.Rows {
			keys[i] = rowKey(r)
		}
		if err := newAnswer(keys).check(got.Rows); err != nil {
			ph.check("final %s differs from a fresh evaluation: %v", t.src, err)
		}
		if len(ph.probe.answers) < maxProbeAnswers {
			ph.probe.answers = append(ph.probe.answers, &dkbms.QueryResult{Vars: got.Vars, Rows: got.Rows})
		}
		ph.probe.queries = append(ph.probe.queries, t.src)
		if q, err := dlog.ParseQuery(t.src); err == nil {
			if compiled, err := ref.Compile(q, nil); err == nil {
				ph.probe.sql = append(ph.probe.sql, programSQL(compiled.Program)...)
			}
		}
	}
	ph.probe.tuples, ph.probe.schema = parent, twoStrings
	ph.probe.programs = []string{"parent(t512, h0_1).", "audit(a1, ok)."}
	ph.storePages = storePages(w.c.Testbed().DB())
	ph.notes["rule_base_rules"] = 4
	ph.notes["clients"] = smClients
	ph.notes["hot_texts"] = len(w.texts)
	ph.notes["server_options"] = "defaults as dkbd runs them: MaxConns 64, IOTimeout 30s, slow log threshold 0, sampler every 1s"
	ph.notes["maintenance_policy"] = "auto (default)"
	ph.notes["pager"] = "in-memory"
	if ph.tr != nil {
		w.joinSlowLog(ph)
	}
	return nil
}

// joinSlowLog attaches each traced read's server-side service time as a
// child span (centred in the client's span: the two wire legs are taken
// as equal), samples the service time and the wire overhead (client
// latency minus service time) per read, and counts evaluations per
// (text, snapshot). The slow-query ring's per-read latencies are exact;
// the registry's server.request_latency_ns histogram resolves only
// powers of two, too coarse for a read of tens of microseconds.
func (w *serveMixed) joinSlowLog(ph *phase) {
	byID := make(map[uint64]obs.SlowQuery)
	for _, q := range w.srv.SlowLog().Snapshot() {
		byID[q.QueryID] = q
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	sort.Slice(w.spans, func(i, j int) bool { return w.spans[i].sp.Offset < w.spans[j].sp.Offset })
	for _, r := range w.spans {
		q, ok := byID[r.qid]
		if !ok {
			continue
		}
		svc := q.Latency
		if svc > r.sp.Duration {
			svc = r.sp.Duration
		}
		ph.sample("server.service", svc)
		ph.sample("wire.overhead", r.sp.Duration-svc)
		c := r.sp.Start("server.service")
		c.Offset = r.sp.Offset + (r.sp.Duration-svc)/2
		c.SetDuration(svc)
		c.SetString("cache", q.Cache)
		if q.Cache == "plan" || q.Cache == "miss" {
			ph.evaluated(r.src, q.Snapshot)
		}
	}
	ph.notes["slowlog_joined"] = fmt.Sprintf("%d of %d reads", len(byID), len(w.spans))
}
