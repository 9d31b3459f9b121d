// Command perfbench is the repository benchmark: three named workloads
// that drive the engine from outside through its public functions, print
// every end-to-end metric by name with its unit, check every answer
// against an oracle, and — with --trace 1 — split the time by layer from
// spans recorded around each call. See README.md in this directory.
//
//	perfbench --workload serve-mixed|batch-deep|wire-wide --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// any answer is wrong or a host-independent value drifted.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/wire"
	_ "commtopk/internal/wire/wireprogs" // registered programs and codecs, leader and workers alike
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every workload reports (the untraced
// run's JSON). Each is defined on all three workloads; see README.md.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"words_per_query", "words"},
	{"msgs_per_query", "msgs"},
	{"bottleneck_words_per_pe", "words"},
	{"model_clock", "alpha_beta"},
	{"peak_rss_mb", "MB"},
}

// reportOnlyDefs are end-to-end metrics printed in the report (n/a where
// undefined) but kept out of the JSON line: all but query_tail_ms are
// defined on some workloads only, and query_tail_ms on serve-mixed
// doubles or triples in runs where other tenants of the host take CPU,
// which no bound the JSON line may carry would absorb.
var reportOnlyDefs = []metricDef{
	{"query_tail_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"max_rate_qps", "1/s"},
	{"fail_ratio", "ratio"},
}

// layerDefs are the per-layer metrics every workload reports in the
// traced run's JSON. Workload-specific layer metrics (serve.*, sel.*,
// wire.*, ...) are printed in the report and written with the spans.
var layerDefs = []metricDef{
	{"setup.gen_s", "s"},
	{"setup.oracle_s", "s"},
	{"setup.build_s", "s"},
	{"setup.warmup_s", "s"},
	{"coll.allreduce_us", "us"},
	{"coll.alltoall_us", "us"},
	{"comm.run_overhead_us", "us"},
	{"comm.wait_share", "ratio"},
	{"mailbox.empty_run_us", "us"},
	{"qsel.ns_per_elem", "ns"},
	{"qsel.bucket_calls_per_query", "count"},
	{"dht.ns_per_key", "ns"},
	{"trace.overhead_ms", "ms"},
}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string // build directory: fingerprints, traces, wire socket
}

// result is what a workload hands back to main.
type result struct {
	attempted int
	failed    int // shed + expired + errored + wrong
	wrong     int // oracle failures and drifted host-independent values
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64 // universal per-layer metrics (JSON)
	extra     []string           // workload-specific report lines
	// fingerprint lists host-independent values that must repeat
	// exactly for the same seed (compared across runs via stateDir).
	fingerprint []string
	spans       []Span
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a wrong answer or drifted value. It never panics.
func (r *result) fail(format string, args ...any) {
	r.wrong++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// workloads maps a name to its runner.
var workloads = map[string]func(runCfg) (*result, error){
	"serve-mixed": runServeMixed,
	"batch-deep":  runBatchDeep,
	"wire-wide":   runWireWide,
}

func main() {
	wire.MaybeWorker() // a re-executed wire worker never returns from here
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runCfg
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "serve-mixed, batch-deep or wire-wide")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "directory for traces and fingerprints (default: the executable's directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-mixed, batch-deep, wire-wide), --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.stateDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		cfg.stateDir = filepath.Dir(exe)
	}
	res, err := safeRun(runner, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	checkFingerprint(cfg, res)
	if cfg.trace && len(res.spans) > 0 {
		path := filepath.Join(cfg.stateDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		res.note("spans: %d written to %s", len(res.spans), path)
	}
	res.e2e["peak_rss_mb"] = peakRSSMB()
	writeReport(stdout, cfg, res)
	line, err := resultJSON(cfg, res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if res.wrong > 0 {
		return 1
	}
	return 0
}

// safeRun turns a panic in the benchmark's own code into an error, after
// the workload's deferred teardown (cluster and machine shutdown) ran.
func safeRun(runner func(runCfg) (*result, error), cfg runCfg) (res *result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return runner(cfg)
}

// resultJSON renders the contract line: every end-to-end metric in an
// untraced run, every per-layer metric in a traced one.
func resultJSON(cfg runCfg, res *result) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := e2eDefs, res.e2e
	if cfg.trace {
		defs, vals = layerDefs, res.layer
	}
	metrics := map[string]val{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = val{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.wrong == 0, max(res.attempted, 1), res.failed, metrics})
	return string(b), err
}

// writeReport prints the human-readable report: the workload's own lines,
// every end-to-end metric by name and unit (n/a where a metric is not
// defined on the workload; in a traced run, from its untraced pass), and
// the per-layer metrics of a traced run.
func writeReport(w io.Writer, cfg runCfg, res *result) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	for _, l := range res.extra {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, d := range append(slices.Clone(e2eDefs), reportOnlyDefs...) {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Fprintf(w, "e2e %-24s %14.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "e2e %-24s %14s %s\n", d.name, "n/a", d.unit)
		}
	}
	if cfg.trace {
		for _, d := range layerDefs {
			fmt.Fprintf(w, "layer %-28s %14.6g %s\n", d.name, res.layer[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "checks attempted=%d failed=%d wrong=%d\n", res.attempted, res.failed, res.wrong)
	for _, p := range res.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}

// checkFingerprint compares the run's host-independent values with the
// record of an earlier run of the same executable, workload and seed,
// and stores them when there is none. Any difference is nondeterminism
// and fails the run; nothing is averaged.
func checkFingerprint(cfg runCfg, res *result) {
	if len(res.fingerprint) == 0 {
		return
	}
	exeHash := "unknown"
	if exe, err := os.Executable(); err == nil {
		if b, err := os.ReadFile(exe); err == nil {
			h := sha256.Sum256(b)
			exeHash = hex.EncodeToString(h[:6])
		}
	}
	dir := filepath.Join(cfg.stateDir, "fingerprints")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%gs-trace%v.txt", exeHash, cfg.workload, cfg.seed, cfg.seconds, cfg.trace))
	cur := strings.Join(res.fingerprint, "\n") + "\n"
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != cur {
			res.fail("nondeterminism: host-independent values differ from an earlier run with seed %d (%s)", cfg.seed, path)
		} else {
			res.note("determinism: %d host-independent values match the earlier run with this seed", len(res.fingerprint))
		}
	case errors.Is(err, os.ErrNotExist):
		if os.MkdirAll(dir, 0o755) == nil && os.WriteFile(path, []byte(cur), 0o644) == nil {
			res.note("determinism: %d host-independent values recorded for seed %d", len(res.fingerprint), cfg.seed)
		}
	default:
		res.note("determinism: cannot read %s: %v", path, err)
	}
}

// reportClosedLoop sets the end-to-end metrics of a closed-loop
// workload from the wall time of each answered query (ms) and the meters
// of one pass over its query cycle, and returns the tail's label. The
// host-independent metrics are means over that one cycle, so they depend
// on the seed only, not on how many queries fit in the window.
func reportClosedLoop(res *result, lat []float64, cycle []comm.Stats) string {
	var sum float64
	for _, l := range lat {
		sum += l
	}
	tailName, tailV := tail(lat)
	res.e2e["query_p50_ms"] = median(lat)
	res.e2e["query_tail_ms"] = tailV
	res.e2e["queries_per_s"] = float64(len(lat)) / (sum / 1e3)
	res.e2e["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	var words, msgs, bott, clock []float64
	for _, s := range cycle {
		words = append(words, float64(s.TotalWords))
		msgs = append(msgs, float64(s.TotalSends))
		bott = append(bott, float64(s.BottleneckWords()))
		clock = append(clock, s.MaxClock)
	}
	res.e2e["words_per_query"] = mean(words)
	res.e2e["msgs_per_query"] = mean(msgs)
	res.e2e["bottleneck_words_per_pe"] = mean(bott)
	res.e2e["model_clock"] = mean(clock)
	return tailName
}

// setupTimes splits one set-up into the phases setup_s covers.
type setupTimes struct{ gen, oracle, build, warmup time.Duration }

func (s setupTimes) total() time.Duration { return s.gen + s.oracle + s.build + s.warmup }

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

// repeatSetup sets up setupReps times, discarding all but the last
// state, and records setup_s and its split as medians.
func repeatSetup[S any](res *result, setup func() (S, setupTimes, error), discard func(S)) (S, error) {
	var st S
	var tot, gen, orc, bld, wu []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(st)
			var zero S
			st = zero // let the discarded state's memory go before the next set-up
			runtime.GC()
		}
		s, t, err := setup()
		if err != nil {
			var zero S
			return zero, err
		}
		st = s
		tot = append(tot, t.total().Seconds())
		gen = append(gen, t.gen.Seconds())
		orc = append(orc, t.oracle.Seconds())
		bld = append(bld, t.build.Seconds())
		wu = append(wu, t.warmup.Seconds())
	}
	runtime.GC()
	res.e2e["setup_s"] = median(tot)
	res.layer["setup.gen_s"] = median(gen)
	res.layer["setup.oracle_s"] = median(orc)
	res.layer["setup.build_s"] = median(bld)
	res.layer["setup.warmup_s"] = median(wu)
	return st, nil
}

// since returns the time elapsed since *t and resets *t to now.
func since(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}
