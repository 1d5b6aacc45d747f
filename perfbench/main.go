// Command perfbench is the D/KB testbed's benchmark. It drives three
// closed-loop workloads through the public API from one process, checks
// every answer against a benchmark-side oracle, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run). Run it from
// the repository root through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload lfp-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// run record and a human-readable report. README.md lists every metric,
// the layer it measures and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dkbms/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's final stdout line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// small shrinks every D/KB to smoke-test size.
	small bool
	// setups is how many times set-up runs before the timed phase;
	// setup_s is their median.
	setups int
	// dir receives the traced run's Chrome trace and the file-backed
	// databases.
	dir string
}

// benchWorkload builds fresh D/KB instances for one traffic mix.
type benchWorkload struct {
	name  string
	setup func(cfg config) (instance, error)
}

// instance is one built and warmed D/KB with its traffic generator.
type instance interface {
	// run drives the closed loop until the phase deadline. The
	// operation stream depends only on the seed.
	run(ph *phase) error
	// finish makes the end-of-run checks and fills the end-of-run
	// gauges (store size, working set).
	finish(ph *phase) error
	// counters reads the program's public counters.
	counters() counters
	close() error
}

var workloads = []benchWorkload{
	{name: "lfp-cold", setup: setupLFPCold},
	{name: "serve-mixed", setup: setupServeMixed},
	{name: "commit-views", setup: setupCommitViews},
}

func main() {
	var cfg config
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lfp-cold, serve-mixed or commit-views")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&secs, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced phase and prints per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the Chrome trace and database files")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.traced = trace == 1
	cfg.setups = 3
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	res, rec, err := measure(*w, cfg)
	if err != nil {
		return err
	}
	return report(os.Stdout, res, rec)
}

// measure runs one workload: the untraced phase always, and with
// cfg.traced a second, traced phase on a fresh instance with the same
// seed. The untraced run reports end-to-end metrics; the traced run
// reports per-layer metrics plus its overhead over the untraced phase.
func measure(w benchWorkload, cfg config) (*outcome, *record, error) {
	rec := newRecord(w.name, cfg)
	setups := cfg.setups
	if cfg.traced || setups < 1 {
		setups = 1 // the traced run reports no setup_s
	}
	var inst instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	plain, err := timedPhase(inst, cfg, nil, rec)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	inst = nil
	if err != nil {
		return nil, nil, err
	}
	plain.liveHeapMB -= liveHeapMB()
	plain.setupS = median(setupTimes)
	rec.Notes["setup_s_each"] = setupTimes
	p50s, rates := plain.windows()
	rec.Notes["window_p50_ms"], rec.Notes["window_ops_per_s"] = p50s, rates
	out := &outcome{
		Correct:   plain.correct(),
		Attempted: plain.attempted.Load(),
		Failed:    plain.failed.Load(),
		Metrics:   plain.endToEnd(),
	}
	rec.Samples = plain.sampleCounts()
	rec.Detail = plain.classDetail()
	rec.Failures = plain.failures()
	if !cfg.traced {
		return out, rec, nil
	}

	inst, err = w.setup(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	tr := obs.NewTrace("run " + w.name)
	traced, err := timedPhase(inst, cfg, tr, rec)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	tr.Finish()
	traced.setupS = plain.setupS
	layers := traced.perLayer()
	for k, v := range runProbes(traced.probe) {
		layers[k] = v
	}
	for k, v := range selfTimes(tr.Root(), traced.ops()) {
		layers[k] = v
	}
	te := traced.endToEnd()
	layers["trace.overhead_op_p50_ms"] = metric{te["op_p50_ms"].Value - out.Metrics["op_p50_ms"].Value, "ms"}
	layers["trace.overhead_ops_per_s"] = metric{te["ops_per_s"].Value - out.Metrics["ops_per_s"].Value, "1/s"}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	if err := writeTrace(path, tr); err != nil {
		return nil, nil, err
	}
	rec.TraceFile = path
	rec.Failures = append(rec.Failures, traced.failures()...)
	return &outcome{
		Correct:   out.Correct && traced.correct(),
		Attempted: out.Attempted + traced.attempted.Load(),
		Failed:    out.Failed + traced.failed.Load(),
		Metrics:   layers,
	}, rec, nil
}

// timedPhase runs one closed-loop phase on a built instance and makes
// its end-of-run checks. It reads the heap after a forced GC while the
// instance is still open; the caller subtracts a second reading taken
// after closing it, so live_heap_mb is what the open D/KB retains and
// the benchmark's own state (samples, probe material) cancels out.
func timedPhase(inst instance, cfg config, tr *obs.Trace, rec *record) (*phase, error) {
	ph := newPhase(tr)
	ph.before = inst.counters()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(cfg.seconds)
	if err := inst.run(ph); err != nil {
		return nil, err
	}
	ph.elapsed = time.Since(ph.start)
	ph.after = inst.counters()
	if err := inst.finish(ph); err != nil {
		return nil, err
	}
	ph.liveHeapMB = liveHeapMB()
	rec.StorePages = ph.storePages
	for k, v := range ph.notes {
		rec.Notes[k] = v
	}
	return ph, nil
}

func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr.Root(), 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run record, a readable metric table and, last, the
// JSON outcome.
func report(w *os.File, res *outcome, rec *record) error {
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", recJSON)
	for _, d := range rec.Detail {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintf(w, "%-40s %14.6g (%d of %d)\n", "failed_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		n := ""
		if c, ok := rec.Samples[strings.TrimSuffix(strings.TrimSuffix(k, "_p50_ms"), "_p90_ms")]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-40s %14.6g %s%s\n", k, m.Value, m.Unit, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
