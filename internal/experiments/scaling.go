package experiments

import (
	"fmt"
	"runtime"
	"time"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// The scaling suite: the O(log p) collective set, the chunked gather
// collectives, and Table-1 unsorted selection at p = 256…131072 — PE
// counts where the paper's O(α log p) startup bounds become visible, and
// where the channel-matrix backend's O(p²) queue memory exceeds
// any sane harness budget (p = 4096 alone would need ~50 GiB of channel
// buffers). Each configuration is guarded by comm.MachineBytes (queues +
// PE handles + scheduler state) against ScalingMemBudgetBytes:
// over-budget machines are recorded as skipped with the estimate, not
// attempted — that refusal is itself the measurement the mailbox backend
// exists to change. The gather workload has a second guard: the
// materializing all-gather's O(p·m) per-PE results are checked against
// the same budget (refused from p = 16384), while the chunked variant is
// capped only by the p²·m aggregate data movement every all-gather
// must perform (a host-time budget, recorded when it trips).
//
// Since PR 3 each mailbox entry also records the scheduler width w and
// the process goroutine count measured while the machine is resident —
// the tentpole claim that goroutines no longer scale with p.

// ScalingMemBudgetBytes is the harness memory budget for up-front
// machine allocation: 1.5 GiB, roomy for everything O(p) and
// unreachable for the channel matrix beyond p ≈ 512.
const ScalingMemBudgetBytes int64 = 3 << 29

// scalingGatherChunk is the chunked collectives' block window c: per-PE
// gather memory is O(m·c) and the ring startup count p/c − 1.
const scalingGatherChunk = 64

// scalingGatherMaxMoved caps the gather workload by aggregate data
// movement (p² blocks of gatherBlockLen words): ~2.1e9 moved words ≈
// 17 GB of memcpy per op is the most this harness spends on one
// configuration (p = 16384 with 4-word blocks).
const scalingGatherMaxMoved int64 = 3 << 30

// ScalingPList returns the scaling-suite PE counts up to pmax.
func ScalingPList(pmax int) []int {
	var out []int
	for _, p := range []int{256, 1024, 4096, 16384, 65536, 131072} {
		if p <= pmax {
			out = append(out, p)
		}
	}
	return out
}

// scalingSelPerPE returns the selection workload's per-PE input size:
// 2^10 through p = 16384 (so those entries stay comparable with earlier
// reports), halved stepwise above so the p·perPE input plus the per-PE
// partition scratch stays inside the harness budget (131072 × 1024 × 8 B
// would be 1 GiB of input alone, doubled by scratch).
func scalingSelPerPE(p int) int {
	switch {
	case p <= 1<<14:
		return 1 << 10
	case p <= 1<<16:
		return 1 << 8
	default:
		return 1 << 7
	}
}

// scalingCollectivesBody is one op of the collective scaling workload:
// the O(log p)-startup collectives (broadcast, all-reduce, prefix sum,
// barrier) whose memory footprint stays O(p) at any scale.
func scalingCollectivesBody(pe *comm.PE) {
	coll.Broadcast(pe, 0, []int64{1, 2, 3, 4})
	coll.AllReduceScalar(pe, int64(pe.Rank()), func(a, b int64) int64 { return a + b })
	coll.ExScanSum(pe, int64(pe.Rank()))
	coll.Barrier(pe)
}

// sumInt64 is the reduction operator of the scaling workloads
// (package-level, so stepper factories allocate no closure per op).
func sumInt64(a, b int64) int64 { return a + b }

// scalingCollectivesStart is the continuation form of the same op — the
// identical message schedule (words/PE, startups/PE and modeled clock
// are pinned equal by the differential suite) run through
// comm.RunAsync, so a PE waiting mid-collective suspends as data instead
// of parking a goroutine. At large p this is where the park/hand-off
// churn — the dominant host cost of the blocking form — disappears; the
// suite records both forms so the A/B is in every report. Since PR 5 the
// stepper state (and the comm.SeqP composition) is pooled per PE, so the
// op allocates like the blocking form instead of feeding the GC ~1.2 KB
// per PE per op — the drag that ate the continuation win at p = 131072.
func scalingCollectivesStart(pe *comm.PE) comm.Stepper {
	return comm.SeqP(pe,
		coll.BroadcastStep(pe, 0, []int64{1, 2, 3, 4}, nil),
		coll.AllReduceScalarStep(pe, int64(pe.Rank()), sumInt64, nil),
		coll.ExScanSumStep(pe, int64(pe.Rank()), nil),
		coll.BarrierStep(pe),
	)
}

// scalingStridedSamples is the sampled-gather workload's default per-PE
// source count s: every PE visits s strided peers, so the aggregate
// movement is p·s·m words — O(p), against the p²·m of any full
// all-gather — and the suite can run a gather-shaped workload at
// p = 131072.
const scalingStridedSamples = 64

// scalingStridedSweep is the s sweep of the strided gather: the sampled
// gather trades O(m·s) transient payload references and O(α·s) startups
// per PE against sample coverage, the same axis the chunked gathers map
// with their window c. The suite runs all three so the trade is a curve,
// not a point; s = 64 keeps the PR 4 entry name for PR-over-PR
// comparability.
var scalingStridedSweep = []int{16, 64, 256}

// scalingStridedStart is one op of the sampled/strided gather workload
// as a continuation body: coll.GatherStridedStep visits the blocks of s
// deterministic sources with O(m) per-PE memory and round-staggered
// O(p) in-flight messages. The checksum keeps the visits honest.
func scalingStridedStart(samples int) func(pe *comm.PE) comm.Stepper {
	return func(pe *comm.PE) comm.Stepper {
		block := make([]int64, gatherBlockLen)
		for i := range block {
			block[i] = int64(pe.Rank() + i)
		}
		var sum int64
		return coll.GatherStridedStep(pe, block, samples, func(src int, b []int64) {
			sum += b[0]
		})
	}
}

// gatherBlockLen is the per-PE block size of the gather workload.
const gatherBlockLen = 4

// scalingGatherBody is one op of the chunked-gather workload: every PE
// receives every other PE's block through the streaming all-gather
// (visited, never materialized — per-PE memory O(m·chunk) instead of the
// O(p·m) that kept gathers out of the suite), plus a chunk-framed
// hypercube all-to-all. The checksum keeps the visit honest.
func scalingGatherBody(pe *comm.PE) {
	var block [gatherBlockLen]int64
	for i := range block {
		block[i] = int64(pe.Rank() + i)
	}
	var sum int64
	coll.AllGatherChunked(pe, block[:], scalingGatherChunk, func(src int, b []int64) {
		sum += b[0]
	})
	items := []coll.Routed[int64]{
		{Dest: (pe.Rank() + 1) % pe.P(), Payload: sum},
		{Dest: (pe.Rank() + pe.P()/2) % pe.P(), Payload: 1},
	}
	coll.AllToAllCombineChunked(pe, items, scalingGatherChunk, nil)
}

// scalingGatherStart is the continuation form of the same op. The
// hypercube stage's items depend on the gather's checksum, so its
// stepper is constructed lazily once the chunked all-gather completes
// (a StepFunc stage inside the pooled sequence).
func scalingGatherStart(pe *comm.PE) comm.Stepper {
	block := make([]int64, gatherBlockLen)
	for i := range block {
		block[i] = int64(pe.Rank() + i)
	}
	var sum int64
	var a2a comm.Stepper
	return comm.SeqP(pe,
		coll.AllGatherChunkedStep(pe, block, scalingGatherChunk, func(src int, b []int64) {
			sum += b[0]
		}),
		comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
			if a2a == nil {
				items := []coll.Routed[int64]{
					{Dest: (pe.Rank() + 1) % pe.P(), Payload: sum},
					{Dest: (pe.Rank() + pe.P()/2) % pe.P(), Payload: 1},
				}
				a2a = coll.AllToAllCombineChunkedStep(pe, items, scalingGatherChunk, nil, nil)
			}
			return a2a.Step(pe)
		}),
	)
}

// heapLive settles the heap and returns live bytes. Two GC cycles: the
// first runs finalizers of earlier machines (releasing their scheduler
// goroutines), the second collects what the finalizers unpinned.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureScaling times iters runs of body on m (after one warmup run)
// and fills the communication metrics from the machine's stats.
func measureScaling(m *comm.Machine, iters int, body func(pe *comm.PE)) (nsPerOp float64, s comm.Stats) {
	run := func() { m.MustRun(body) }
	return measureScalingRuns(m, iters, run)
}

// measureScalingAsync is measureScaling for continuation bodies driven
// through RunAsync.
func measureScalingAsync(m *comm.Machine, iters int, start func(pe *comm.PE) comm.Stepper) (nsPerOp float64, s comm.Stats) {
	run := func() { m.MustRunAsync(start) }
	return measureScalingRuns(m, iters, run)
}

func measureScalingRuns(m *comm.Machine, iters int, run func()) (nsPerOp float64, s comm.Stats) {
	run() // warmup: scheduler spawn, pool and scratch warm
	// Settle the heap before timing: by this point in a long suite process
	// the allocator carries earlier configurations' garbage and pool
	// retention, which otherwise bleeds GC time into whichever workload
	// runs first (the continuation entries allocate their stepper state
	// per op and are the most exposed).
	runtime.GC()
	m.ResetStats()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	elapsed := time.Since(t0)
	s = m.Stats()
	s.TotalWords /= int64(iters)
	s.TotalSends /= int64(iters)
	s.MaxSentWords /= int64(iters)
	s.MaxRecvWords /= int64(iters)
	s.MaxSends /= int64(iters)
	s.MaxClock /= float64(iters)
	return float64(elapsed.Nanoseconds()) / float64(iters), s
}

// residentGoroutines waits briefly for transient run goroutines (parked
// PE bodies) to retire and returns the settled process goroutine count —
// the number a resident machine pins between runs.
func residentGoroutines(bound int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) && n > bound {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// ScalingQuickPMax caps the -quick tier of the suite: large enough that
// the O(α log p) trends and both gather variants are visible, small
// enough that a CI smoke finishes in tens of seconds.
const ScalingQuickPMax = 4096

// ScalingSuite runs the scaling workloads for every p in pList on both
// backends, refusing configurations whose estimated machine memory
// exceeds budget. quick selects the CI tier: runs/op drop to 1 and the
// blocking park-churn A/B twins are skipped (callers should also cap
// pList at ScalingQuickPMax). progress (optional) receives one line per
// entry.
func ScalingSuite(pList []int, budget int64, quick bool, progress func(string)) []BenchResult {
	var out []BenchResult
	for _, p := range pList {
		for _, backend := range []comm.Backend{comm.BackendMailbox, comm.BackendChannelMatrix} {
			for _, r := range scalingRun(p, backend, budget, quick) {
				out = append(out, r)
				if progress != nil {
					if r.Skipped != "" {
						progress(fmt.Sprintf("%-44s SKIPPED: %s", r.Name, r.Skipped))
					} else {
						progress(fmt.Sprintf("%-44s %14.0f ns/op %10.0f words/PE %8.0f starts/PE %10.0f machine B %5d goroutines",
							r.Name, r.NsPerOp, r.WordsPerPE, r.StartsPerPE, r.MachineBytes, r.Goroutines))
					}
				}
			}
		}
	}
	return out
}

// scalingRunIters scales a workload's measured runs/op down for the
// quick tier.
func scalingRunIters(iters int, quick bool) int {
	if quick {
		return 1
	}
	return iters
}

func scalingRun(p int, backend comm.Backend, budget int64, quick bool) []BenchResult {
	cfg := comm.DefaultConfig(p)
	cfg.Backend = backend
	collName := fmt.Sprintf("Scaling/Collectives/p=%d/%s", p, backend)
	collBlockName := fmt.Sprintf("Scaling/Collectives/p=%d/%s/blocking", p, backend)
	gatherName := fmt.Sprintf("Scaling/GatherChunked/p=%d/%s", p, backend)
	stridedName := fmt.Sprintf("Scaling/GatherStrided/p=%d/%s", p, backend)
	selName := fmt.Sprintf("Scaling/Table1Selection/p=%d/%s", p, backend)
	mtopkName := fmt.Sprintf("Scaling/MtopkDTA/p=%d/%s", p, backend)
	freqName := fmt.Sprintf("Scaling/FreqPAC/p=%d/%s", p, backend)
	res := func(name string) BenchResult {
		return BenchResult{Name: name, P: p, Backend: backend.String(), Workers: comm.SchedWorkers(cfg)}
	}
	skip := func(name, reason string) BenchResult {
		r := res(name)
		r.Skipped = reason
		return r
	}
	stridedNames := make(map[int]string, len(scalingStridedSweep))
	for _, smp := range scalingStridedSweep {
		name := stridedName
		if smp != scalingStridedSamples {
			name = fmt.Sprintf("%s/s=%d", stridedName, smp)
		}
		stridedNames[smp] = name
	}
	if mb := comm.MachineBytes(cfg); mb > budget {
		reason := fmt.Sprintf("estimated machine memory %.2f GiB exceeds the %.1f GiB harness budget",
			float64(mb)/(1<<30), float64(budget)/(1<<30))
		out := []BenchResult{skip(collName, reason), skip(gatherName, reason)}
		for _, smp := range scalingStridedSweep {
			out = append(out, skip(stridedNames[smp], reason))
		}
		return append(out, skip(selName, reason), skip(mtopkName, reason), skip(freqName, reason))
	}

	baseline := runtime.NumGoroutine()
	heapBefore := heapLive()
	m := comm.NewMachine(cfg)
	// Signed delta clamped at zero: the first GC may also reclaim garbage
	// from earlier configurations, which would underflow an unsigned diff.
	machineBytes := max(float64(int64(heapLive())-int64(heapBefore)), 0)
	defer m.Close()

	fill := func(r BenchResult, ns float64, s comm.Stats) BenchResult {
		r.MachineBytes = machineBytes
		r.NsPerOp = ns
		r.WordsPerPE = float64(s.BottleneckWords())
		r.StartsPerPE = float64(s.MaxSends)
		r.MaxClock = s.MaxClock
		// Goroutine residency is the tentpole claim: measured on the live
		// process while the machine (which has just run workloads that
		// parked thousands of PE bodies) is still resident.
		r.Goroutines = residentGoroutines(baseline + r.Workers + 2)
		return r
	}

	var out []BenchResult
	// Collectives workload. On the mailbox backend the primary entry runs
	// the continuation form (the async API is how collectives are meant to
	// run at scale since PR 4); the "/blocking" twin measures the same op
	// through blocking bodies — the park-churn A/B — and is skipped in the
	// quick tier. The channel matrix keeps the blocking form (its RunAsync
	// is the naive blocking drive anyway).
	if backend == comm.BackendMailbox {
		ns, s := measureScalingAsync(m, scalingRunIters(5, quick), scalingCollectivesStart)
		r := fill(res(collName), ns, s)
		r.Note = "continuation-scheduled (comm.RunAsync)"
		out = append(out, r)
		if !quick {
			blockIters := 3
			if p >= 1<<16 {
				blockIters = 1
			}
			ns, s = measureScaling(m, blockIters, scalingCollectivesBody)
			rb := fill(res(collBlockName), ns, s)
			rb.Note = "park-churn A/B reference (blocking bodies)"
			out = append(out, rb)
		}
	} else {
		ns, s := measureScaling(m, scalingRunIters(5, quick), scalingCollectivesBody)
		out = append(out, fill(res(collName), ns, s))
	}

	// Sampled/strided gather, swept over s: every PE visits s strided
	// peers, so the aggregate movement is p·s·m words — the gather-shaped
	// workload that exists at p = 131072, where any full all-gather's p²·m
	// movement does not fit one host. Continuation-scheduled on the
	// mailbox backend; the sweep maps the O(m·s)-payload / O(α·s)-startup
	// trade the way the chunked gathers' c does.
	for _, smp := range scalingStridedSweep {
		iters := scalingRunIters(3, quick)
		if p >= 1<<16 && smp > scalingStridedSamples {
			iters = 1 // the s=256 op moves 4× the default; bound host time
		}
		start := scalingStridedStart(smp)
		var ns float64
		var s comm.Stats
		if backend == comm.BackendMailbox {
			ns, s = measureScalingAsync(m, iters, start)
		} else {
			ns, s = measureScaling(m, iters, func(pe *comm.PE) {
				comm.RunSteps(pe, start(pe))
			})
		}
		r := fill(res(stridedNames[smp]), ns, s)
		r.Note = fmt.Sprintf("s=%d sources/PE; aggregate movement p·s·m = %.1e words", smp,
			float64(p)*float64(smp)*gatherBlockLen)
		out = append(out, r)
	}

	// Gather workload: refuse what must be refused, loudly. The
	// materializing all-gather would hold p blocks on every PE; the
	// chunked one moves the same p² blocks through O(m·chunk) windows,
	// bounded here only by host time.
	matBytes := int64(p) * int64(p) * gatherBlockLen * 8
	moved := int64(p) * int64(p) * gatherBlockLen
	switch {
	case moved > scalingGatherMaxMoved:
		out = append(out, skip(gatherName, fmt.Sprintf(
			"all-gather moves p²·m = %.1e words per op; over the harness host-time budget (materializing variant would also need %.1f GiB of results)",
			float64(moved), float64(matBytes)/(1<<30))))
	default:
		iters := 3
		if quick || moved > scalingGatherMaxMoved/8 {
			iters = 1
		}
		matNote := ""
		if matBytes > budget {
			matNote = fmt.Sprintf("; materializing AllGatherv would need %.1f GiB of results (chunked window %.1f MiB)",
				float64(matBytes)/(1<<30), float64(int64(p)*scalingGatherChunk*gatherBlockLen*8)/(1<<20))
		}
		if backend == comm.BackendMailbox {
			ns, s := measureScalingAsync(m, iters, scalingGatherStart)
			r := fill(res(gatherName), ns, s)
			r.Note = "continuation-scheduled (comm.RunAsync)" + matNote
			out = append(out, r)
			if !quick {
				ns, s = measureScaling(m, iters, scalingGatherBody)
				rb := fill(res(gatherName+"/blocking"), ns, s)
				rb.Note = "park-churn A/B reference (blocking bodies)" + matNote
				out = append(out, rb)
			}
		} else {
			ns, s := measureScaling(m, iters, scalingGatherBody)
			r := fill(res(gatherName), ns, s)
			if matNote != "" {
				r.Note = matNote[2:]
			}
			out = append(out, r)
		}
	}

	// Table-1 unsorted selection. Since PR 5 the mailbox primary runs the
	// full selection skeleton continuation-scheduled (sel.KthStep under
	// comm.RunAsync — the whole Table-1 pipeline at O(w) mid-run
	// goroutines); the "/blocking" twin is the park-churn A/B, skipped in
	// the quick tier. Fixed pivot seed: every measured run takes the same
	// communication path, so the per-op stats are exact rather than
	// averaged estimates.
	perPE := scalingSelPerPE(p)
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(3, r), perPE, 12)
	}
	n := int64(p) * int64(perPE)
	selNote := fmt.Sprintf("n/p=%d", perPE)
	selBlocking := func(pe *comm.PE) {
		sel.Kth(pe, locals[pe.Rank()], n/2, xrand.NewPE(17, pe.Rank()))
	}
	if backend == comm.BackendMailbox {
		ns, s := measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
			return sel.KthStep(pe, locals[pe.Rank()], n/2, xrand.NewPE(17, pe.Rank()), nil)
		})
		r := fill(res(selName), ns, s)
		r.Note = selNote + "; continuation-scheduled (comm.RunAsync)"
		out = append(out, r)
		if !quick {
			blockIters := 3
			if p >= 1<<16 {
				blockIters = 1
			}
			ns, s = measureScaling(m, blockIters, selBlocking)
			rb := fill(res(selName+"/blocking"), ns, s)
			rb.Note = selNote + "; park-churn A/B reference (blocking bodies)"
			out = append(out, rb)
		}
	} else {
		ns, s := measureScaling(m, scalingRunIters(3, quick), selBlocking)
		r := fill(res(selName), ns, s)
		r.Note = selNote
		out = append(out, r)
	}

	// Multicriteria threshold algorithm and sampling heavy hitters: the
	// PR 10 stepper ports measured at scale, tiny per-PE instances (the
	// axis of interest is the collective critical path over p, not local
	// scan work). Same mailbox-primary/"/blocking"-twin discipline.
	datas := make([]*mtopk.Data, p)
	freqLocals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		datas[r] = mtopk.NewData(mtopk.GenObjects(xrand.NewPE(7, r), 4, 2, 1+uint64(r)*4), 2)
		rng := xrand.NewPE(11, r)
		sh := make([]uint64, 16)
		for i := range sh {
			u := rng.Uint64() % 16
			sh[i] = rng.Uint64() % (u + 1)
		}
		freqLocals[r] = sh
	}
	freqParams := freq.Params{K: 8, Eps: 0.05, Delta: 0.01}
	mtopkBlocking := func(pe *comm.PE) {
		mtopk.DTA(pe, datas[pe.Rank()], mtopk.SumScore, 8, xrand.NewPE(23, pe.Rank()))
	}
	freqBlocking := func(pe *comm.PE) {
		freq.PAC(pe, freqLocals[pe.Rank()], freqParams, xrand.NewPE(29, pe.Rank()))
	}
	if backend == comm.BackendMailbox {
		ns, s := measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
			return mtopk.DTAStep(pe, datas[pe.Rank()], mtopk.SumScore, 8, xrand.NewPE(23, pe.Rank()), nil)
		})
		r := fill(res(mtopkName), ns, s)
		r.Note = "n/p=4, m=2, k=8; continuation-scheduled (comm.RunAsync)"
		out = append(out, r)
		ns, s = measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
			return freq.PACStep(pe, freqLocals[pe.Rank()], freqParams, xrand.NewPE(29, pe.Rank()), nil)
		})
		r = fill(res(freqName), ns, s)
		r.Note = "n/p=16, k=8; continuation-scheduled (comm.RunAsync)"
		out = append(out, r)
		if !quick {
			blockIters := 3
			if p >= 1<<16 {
				blockIters = 1
			}
			ns, s = measureScaling(m, blockIters, mtopkBlocking)
			rb := fill(res(mtopkName+"/blocking"), ns, s)
			rb.Note = "park-churn A/B reference (blocking bodies)"
			out = append(out, rb)
			ns, s = measureScaling(m, blockIters, freqBlocking)
			rb = fill(res(freqName+"/blocking"), ns, s)
			rb.Note = "park-churn A/B reference (blocking bodies)"
			out = append(out, rb)
		}
	} else {
		ns, s := measureScaling(m, scalingRunIters(3, quick), mtopkBlocking)
		out = append(out, fill(res(mtopkName), ns, s))
		ns, s = measureScaling(m, scalingRunIters(3, quick), freqBlocking)
		out = append(out, fill(res(freqName), ns, s))
	}
	return out
}

// ScalingTable renders the scaling suite as a human-readable experiment
// table for `topkbench -exp scaling` (quick selects the capped CI tier;
// callers pass pmax ≤ ScalingQuickPMax alongside it).
func ScalingTable(pmax int, quick bool) Table {
	t := Table{
		Title: "Scaling: collectives, gathers (chunked + strided s sweep) and Table-1 selection at large p, continuation-scheduled with blocking A/B twins (mailbox vs channel matrix)",
		Notes: fmt.Sprintf("memory budget %.1f GiB for up-front machine allocation (comm.MachineBytes); over-budget configs are refused\ncollectives op = broadcast + all-reduce + prefix sum + barrier; all mailbox primaries run continuation-scheduled via comm.RunAsync on pooled stepper state, /blocking twins = park-churn A/B\ngather ops: chunked all-gather (m=%d, chunk=%d) + chunked hypercube A2A; strided gather swept over s=%v sources/PE (movement p·s·m; unsuffixed entry = s=%d)\nselection: sel.KthStep, k=n/2, n/p=2^10 through p=2^14 then reduced (see entry notes); goroutines = resident process count with the machine live (w = scheduler width)",
			float64(ScalingMemBudgetBytes)/(1<<30), gatherBlockLen, scalingGatherChunk, scalingStridedSweep, scalingStridedSamples),
		Header: []string{"workload", "p", "backend", "ns/op", "words/PE", "start/PE", "T_model", "machine MB", "w", "goroutines"},
	}
	for _, r := range ScalingSuite(ScalingPList(pmax), ScalingMemBudgetBytes, quick, nil) {
		if r.Skipped != "" {
			t.Rows = append(t.Rows, []string{r.Name, fmt.Sprint(r.P), r.Backend, "—", "—", "—", "—", r.Skipped, "—", "—"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.P), r.Backend,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.WordsPerPE),
			fmt.Sprintf("%.0f", r.StartsPerPE),
			modelMs(r.MaxClock),
			fmt.Sprintf("%.2f", r.MachineBytes/(1<<20)),
			fmt.Sprint(r.Workers),
			fmt.Sprint(r.Goroutines),
		})
	}
	return t
}
