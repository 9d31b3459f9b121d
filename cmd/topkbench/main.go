// Command topkbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md for the mapping to the paper).
//
// Usage:
//
//	topkbench -exp fig6|fig7a|fig7b|fig8|fig5|table1|amsbatch|pqflex|dht|redist|coll|scaling|all
//	          [-pmax 64] [-perpe 1048576] [-k 32] [-seed 1]
//
// Larger -perpe / -pmax approach the paper's scales at the cost of run
// time; the defaults finish in minutes on a laptop. `-exp scaling` (not
// part of `all`) runs the large-p suite — the O(log p) collectives, the
// chunked gather and the strided gather swept over s ∈ {16, 64, 256},
// and Table-1 selection (sel.KthStep) at p = 256…131072; every mailbox
// primary is continuation-scheduled on pooled stepper state with
// blocking A/B twins, and the channel matrix is refused beyond the
// harness memory budget. `-quick` selects the CI tier (p ≤ 4096, one
// run per op, no A/B twins) — including the stepper-form selection path.
// `-exp kernels` (also not part of `all`) runs the host-local kernel
// family: the selection engines swept over n = 2^10…2^24 and five input
// distributions, plus the dht.Table probe loop and the treap structural
// ops; with `-quick` it is the CI smoke tier (one run per op, n ≤ 2^18).
// `-exp bpq` (also not part of `all`) runs the bulk-priority-queue
// churn family: ascending InsertBulk + global DeleteMin batches swept
// over p and per-PE batch size b, continuation-scheduled with blocking
// A/B twins, plus the treap insert/delete arena gate; `-quick` is the
// CI smoke tier (p = 256 only, one run per op, no twins).
// `-exp serve` (also not part of `all`) runs the multi-tenant serving
// axis: open-loop QPS and p50/p95/p99 completion latency of the
// internal/serve front end at a calibrated offered rate, comparing
// sequential vs interleaved inflight; `-quick` is the CI smoke tier
// (fewer queries).
// `-cpuprofile f` / `-memprofile f` write pprof profiles of any run.
//
// Benchmark pipeline mode (see EXPERIMENTS.md § Benchmark pipeline):
//
//	topkbench -json [-pr 1] [-baseline BENCH_PR0.json] [-out BENCH_PR1.json] [-note "..."]
//
// runs the fixed host-benchmark suite (Table 1 unsorted selection and the
// substrate collectives, matching the root bench_test.go configurations)
// and writes BENCH_PR<N>.json recording ns/op, allocs/op, B/op, the
// bottleneck communication words and startups per PE, and the modeled
// critical-path clock. With -baseline, an earlier report's results are
// embedded so one committed file carries the before/after comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"commtopk/internal/comm"
	"commtopk/internal/experiments"
	"commtopk/internal/wire"
)

func main() {
	// A wire cluster re-execs this binary as its workers (rendezvous
	// address in the environment); a worker process never parses flags.
	wire.MaybeWorker()

	exp := flag.String("exp", "all", "experiment id (fig6, fig7a, fig7b, fig8, fig5, table1, amsbatch, pqflex, dht, redist, coll, scaling, kernels, bpq, serve, wire, all)")
	backendFlag := flag.String("backend", "mailbox", "machine backend for the experiment families: mailbox, chanmatrix, or wire (wire is valid only with -exp wire — the other families run closures, which cannot cross process boundaries)")
	quick := flag.Bool("quick", false, "CI tier: with -exp scaling p capped at 4096, one run per op, no blocking A/B twins; with -exp kernels n capped at 2^18, one run per op; with -exp bpq p=256 only, one run per op, no twins; with -exp serve a reduced query count")
	pmax := flag.Int("pmax", 64, "maximum PE count for weak-scaling sweeps (powers of two from 1)")
	perPE := flag.Int("perpe", 1<<17, "elements per PE (the paper's n/p; 2^28 in the paper)")
	k := flag.Int("k", 32, "output size k")
	seed := flag.Int64("seed", 1, "random seed")
	jsonMode := flag.Bool("json", false, "run the benchmark pipeline and emit BENCH_PR<N>.json instead of experiment tables")
	pr := flag.Int("pr", 0, "PR number stamped into the benchmark report (names the default -out)")
	baseline := flag.String("baseline", "", "earlier BENCH_PR<N>.json whose results are embedded as the baseline")
	out := flag.String("out", "", "benchmark report path (default BENCH_PR<pr>.json)")
	note := flag.String("note", "", "free-form note recorded in the benchmark report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	flag.Parse()

	switch *backendFlag {
	case "mailbox":
	case "chanmatrix":
		experiments.SetBackend(comm.BackendChannelMatrix)
	case "wire":
		if *exp != "wire" {
			fmt.Fprintln(os.Stderr, "topkbench: -backend wire requires -exp wire (the other experiment families run SPMD closures, which cannot cross process boundaries; the wire family runs registered programs)")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "topkbench: unknown -backend %q (want mailbox, chanmatrix, or wire)\n", *backendFlag)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained, not transient, memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *jsonMode {
		// The pipeline suite runs fixed configurations (so reports stay
		// comparable PR-over-PR); the experiment sweep flags do not apply.
		// Exception: -exp wire selects the wire measured-vs-modeled family
		// as the report's suite.
		wireReport := *exp == "wire"
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pmax", "perpe", "k", "seed":
				fmt.Fprintf(os.Stderr, "topkbench: -%s is ignored in -json mode (the pipeline suite is fixed; see EXPERIMENTS.md)\n", f.Name)
			case "exp", "quick":
				if !wireReport {
					fmt.Fprintf(os.Stderr, "topkbench: -%s is ignored in -json mode (the pipeline suite is fixed; see EXPERIMENTS.md)\n", f.Name)
				}
			}
		})
		path := *out
		if path == "" {
			path = fmt.Sprintf("BENCH_PR%d.json", *pr)
		}
		suite := experiments.RunBenchSuite
		if wireReport {
			suite = func(progress func(string)) []experiments.BenchResult {
				return experiments.WireSuite(*quick, progress)
			}
		}
		rep, err := experiments.WriteBenchReportSuite(path, *pr, *note, *baseline, suite,
			func(line string) { fmt.Fprintln(os.Stderr, line) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks", path, len(rep.Results))
		if len(rep.Baseline) > 0 {
			fmt.Printf(", baseline embedded")
		}
		fmt.Println(")")
		return
	}

	pList := experiments.PList(*pmax)
	var tables []experiments.Table

	want := func(id string) bool { return *exp == id || *exp == "all" }

	if want("fig6") {
		// k values spread across the input as in the paper (2^10, 2^20, 2^26
		// against n/p=2^28): here 2^10, and two larger ones scaled to n/p.
		ks := []int64{1 << 10, int64(*perPE) / 64, int64(*perPE) / 4}
		tables = append(tables, experiments.Fig6(*perPE, pList, ks, *seed))
	}
	if want("fig7a") {
		tables = append(tables, experiments.Fig7(*perPE/4, pList, *k, 0.02, 1e-4, *seed))
	}
	if want("fig7b") {
		tables = append(tables, experiments.Fig7(*perPE, pList, *k, 0.02, 1e-4, *seed))
	}
	if want("fig8") {
		tables = append(tables, experiments.Fig8(*perPE, pList, *k, 5e-4, 1e-8, *seed))
	}
	if want("fig5") {
		tables = append(tables, experiments.Fig5(min(8, *pmax), 6, *seed))
	}
	if want("table1") {
		p := min(64, *pmax)
		tables = append(tables, experiments.Table1(p, *perPE/4, *k, *seed))
	}
	if want("amsbatch") {
		tables = append(tables, experiments.AblationAMSBatch(min(8, *pmax), *perPE/8,
			int64(*perPE)/4, int64(*perPE)/4+int64(*perPE)/256, *seed))
	}
	if want("pqflex") {
		tables = append(tables, experiments.AblationPQFlexible(min(8, *pmax), *perPE/8, int64(*k)*16, *seed))
	}
	if want("dht") {
		tables = append(tables, experiments.AblationDHTRouting(min(16, *pmax), 4096, *seed))
	}
	if want("redist") {
		tables = append(tables, experiments.AblationRedistribution(min(16, *pmax), *perPE/8, *seed))
	}
	if want("coll") {
		tables = append(tables, experiments.CollectivesScaling(pList))
	}
	if *exp == "scaling" {
		// Not part of -exp all: the large-p machines take minutes. With
		// -pmax unset, the suite runs its full range (p up to 131072, or
		// 4096 in the -quick CI tier); an explicit -pmax caps it (below 256
		// nothing qualifies — say so rather than silently running the big
		// machines anyway).
		scaleMax := 1 << 17
		if *quick {
			scaleMax = experiments.ScalingQuickPMax
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pmax" {
				scaleMax = min(scaleMax, *pmax)
			}
		})
		if scaleMax < 256 {
			fmt.Fprintf(os.Stderr, "topkbench: -exp scaling starts at p=256; -pmax %d selects no configurations\n", scaleMax)
			os.Exit(2)
		}
		tables = append(tables, experiments.ScalingTable(scaleMax, *quick))
	}
	if *exp == "kernels" {
		// Not part of -exp all: host-local microbenchmarks of the selection
		// engines, the dht.Table probe loop, the treap structural ops and
		// agg.LocalAggregate (no machine, no meters). -quick is the CI smoke tier: one run per
		// op and n capped at 2^18.
		tables = append(tables, experiments.KernelsTables(*quick)...)
	}
	if *exp == "bpq" {
		// Not part of -exp all: the churn family builds machines up to
		// p = 16384. -quick is the CI smoke tier: p = 256, one run per op,
		// no blocking A/B twins.
		tables = append(tables, experiments.BpqTable(*quick))
	}
	if *exp == "wire" {
		// Not part of -exp all: spawns real worker processes. Measures
		// wall-clock vs the modeled α/β clock for the registered programs
		// on multi-process clusters, twin-checked against the in-process
		// mailbox machine. -quick is the CI tier (p=16, 2 processes).
		tables = append(tables, experiments.WireTable(*quick))
	}
	if *exp == "serve" {
		// Not part of -exp all: wall-clock serving measurements (open-loop
		// QPS / tail latency of internal/serve) are load-sensitive and take
		// tens of seconds. -quick is the CI smoke tier: fewer queries, same
		// calibrated offered rate.
		tables = append(tables, experiments.ServingTable(*quick))
	}

	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	var sb strings.Builder
	for i := range tables {
		tables[i].Render(&sb)
	}
	fmt.Print(sb.String())
}
