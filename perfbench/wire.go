package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/qsel"
	"commtopk/internal/wire"
	"commtopk/internal/xrand"
)

// wire-wide: a closed loop over a wire cluster of p = 256 PEs split over
// two processes on unix sockets. It cycles through the registered
// programs kth, freq, deletemin and mtopk with seeded arguments and small
// per-PE inputs, so every collective crosses a real process boundary
// through frames and the hub relay while the kernels stay light.
const (
	wireP     = 256
	wireProcs = 2
	wireKthN  = 1 << 12
	wireFreqN = 1 << 12
	wireFreqU = 256
)

// wireCycle is the program of each slot; kth appears twice so the cycle
// has an odd number of equally weighted slots.
var wireCycle = []string{"kth", "freq", "deletemin", "mtopk", "kth"}

type wireQuery struct {
	prog  string
	args  []uint64
	res   []uint64 // the in-process twin's result words
	stats comm.Stats
}

type wireState struct {
	cfg   wire.Config
	c     *wire.Cluster
	cycle []wireQuery
	spawn time.Duration
	hung  bool
}

// wireRunTimeout bounds one cluster run. At p = 256 a cluster that runs
// programs back to back stops within tens of runs: every PE of both
// processes waits for a message that never arrives. The watchdog turns
// that hang into an error instead of a benchmark that never ends.
const wireRunTimeout = 20 * time.Second

var errWireHung = fmt.Errorf("wire cluster run did not finish within %v: the wire backend hangs on repeated runs", wireRunTimeout)

func (st *wireState) close() {
	if st.c == nil {
		return
	}
	c := st.c
	st.c = nil
	if !st.hung {
		c.Close()
		return
	}
	// The hung Run still holds the cluster. Close kills the workers after
	// the shutdown timeout; it is not waited for beyond that, because the
	// leader's own machine never finishes its Run.
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(st.cfg.ShutdownTimeout + 5*time.Second):
	}
}

// wireArgs derives a program's arguments from rng.
func wireArgs(prog string, rng *xrand.RNG) []uint64 {
	s := rng.Uint64() >> 8
	switch prog {
	case "kth":
		return []uint64{s, wireKthN, 1 + rng.Uint64()%(wireP*wireKthN)}
	case "freq":
		return []uint64{s, wireFreqN, wireFreqU, 16}
	case "deletemin":
		return []uint64{s, 256, 64, 1}
	default: // mtopk
		return []uint64{s, 16, 2, 4}
	}
}

// wireSocket picks the rendezvous socket inside the state directory, as
// a path relative to the working directory (socket paths are short); ""
// falls back to a fresh temporary directory.
func wireSocket(stateDir string) string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	rel, err := filepath.Rel(wd, filepath.Join(stateDir, fmt.Sprintf("wire-%d.sock", os.Getpid())))
	if err != nil || len(rel) > 100 {
		return ""
	}
	os.Remove(rel) // a stale socket of a killed earlier run with this pid
	return rel
}

func wireSetup(seed int64, stateDir string) (*wireState, setupTimes, error) {
	var t setupTimes
	clk := time.Now()
	st := &wireState{cfg: wire.Config{P: wireP, Procs: wireProcs, Seed: seed, Addr: wireSocket(stateDir),
		ShutdownTimeout: 3 * time.Second}}
	rng := xrand.New(seed)
	for _, prog := range wireCycle {
		st.cycle = append(st.cycle, wireQuery{prog: prog, args: wireArgs(prog, rng)})
	}
	t.gen = since(&clk)
	// Oracle: each query's in-process twin, computed once.
	for i := range st.cycle {
		q := &st.cycle[i]
		res, stats, err := wire.RunLocal(st.cfg, q.prog, q.args)
		if err != nil {
			return nil, t, fmt.Errorf("twin %s: %w", q.prog, err)
		}
		q.res, q.stats = res, stats
	}
	t.oracle = since(&clk)
	c, err := wire.Spawn(st.cfg)
	if err != nil {
		return nil, t, fmt.Errorf("spawn: %w", err)
	}
	st.c = c
	t.build = since(&clk)
	st.spawn = t.build
	// Warm-up: each query once across the processes.
	for _, q := range st.cycle {
		if msg, err := st.runOne(q); err != nil || msg != "" {
			st.close()
			return nil, t, fmt.Errorf("warm-up %s: %v %s", q.prog, err, msg)
		}
	}
	t.warmup = since(&clk)
	return st, t, nil
}

// runOne runs q on the cluster and compares it with its twin; it returns
// the discrepancy, or "".
func (st *wireState) runOne(q wireQuery) (string, error) {
	type out struct {
		res   []uint64
		stats comm.Stats
		err   error
	}
	ch := make(chan out, 1)
	go func() {
		res, stats, err := st.c.Run(q.prog, q.args)
		ch <- out{res, stats, err}
	}()
	var o out
	select {
	case o = <-ch:
	case <-time.After(wireRunTimeout):
		st.hung = true
		return "", errWireHung
	}
	res, stats, err := o.res, o.stats, o.err
	if err != nil {
		return "", err
	}
	if !slices.Equal(res, q.res) || stats != q.stats {
		return fmt.Sprintf("%s%v: wire result/meters differ from the in-process twin (%+v vs %+v)", q.prog, q.args, stats, q.stats), nil
	}
	return "", nil
}

// wireLoop runs the cycle closed-loop for dur and returns the wall time
// of each query in ms with its slot; a traced loop also times each
// query's in-process twin.
func (st *wireState) wireLoop(res *result, dur time.Duration, tr *Tracer, twin map[string][]float64) ([]float64, []int, int64, error) {
	var lat []float64
	var slots []int
	var buckets int64
	start := time.Now()
	for i := 0; i < len(st.cycle) || time.Since(start) < dur; i++ {
		slot := i % len(st.cycle)
		q := st.cycle[slot]
		id := tr.Begin("wire.run."+q.prog, -1, i, -1)
		b0 := qsel.BucketSelects()
		t0 := time.Now()
		msg, err := st.runOne(q)
		wall := time.Since(t0)
		buckets += qsel.BucketSelects() - b0
		tr.End(id)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", q.prog, err)
		}
		res.attempted++
		if msg != "" {
			res.failed++
			res.fail("wire-wide query %d: %s", i, msg)
			continue
		}
		lat = append(lat, ms(wall))
		slots = append(slots, slot)
		if twin != nil {
			id := tr.Begin("wire.twin."+q.prog, -1, i, -1)
			t0 := time.Now()
			_, _, err := wire.RunLocal(st.cfg, q.prog, q.args)
			twin[q.prog] = append(twin[q.prog], ms(time.Since(t0)))
			tr.End(id)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("twin %s: %w", q.prog, err)
			}
		}
	}
	return lat, slots, buckets, nil
}

func runWireWide(cfg runCfg) (*result, error) {
	res := newResult()
	var spawns []float64
	st, err := repeatSetup(res, func() (*wireState, setupTimes, error) {
		st, t, err := wireSetup(cfg.seed, cfg.stateDir)
		if err == nil {
			spawns = append(spawns, st.spawn.Seconds())
		}
		return st, t, err
	}, (*wireState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var tr *Tracer
	var tlat []float64
	var tslots []int
	var tbuckets int64
	twin := map[string][]float64{}
	if cfg.trace {
		dur /= 2
		tr = newTracer()
		if tlat, tslots, tbuckets, err = st.wireLoop(res, dur, tr, twin); err != nil {
			return nil, err
		}
	}
	lat, slots, _, err := st.wireLoop(res, dur, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no query answered correctly")
	}
	if err := st.c.Close(); err != nil {
		return nil, fmt.Errorf("cluster close: %w", err)
	}
	st.c = nil
	var cycle []comm.Stats
	for i, q := range st.cycle {
		cycle = append(cycle, q.stats)
		res.fingerprint = append(res.fingerprint, fmt.Sprintf("slot %d %s%v %s results=%x", i, q.prog, q.args,
			meterKey(q.stats, 0), fnv(q.res)))
	}
	tailName := reportClosedLoop(res, lat, cycle)
	res.fingerprint = append(res.fingerprint, "every wire run equal to its twin")
	res.note("%d queries in %d-slot cycles over p=%d procs=%d; tail = %s; every run compared with its in-process twin",
		len(lat), len(st.cycle), wireP, wireProcs, tailName)
	for _, prog := range []string{"kth", "freq", "deletemin", "mtopk"} {
		var pl []float64
		for i, s := range slots {
			if st.cycle[s].prog == prog {
				pl = append(pl, lat[i])
			}
		}
		res.note("%-10s n=%4d p50 %9.3f ms", prog, len(pl), median(pl))
	}
	if !cfg.trace {
		return res, nil
	}

	tailName, tailV := tail(tlat)
	res.note("e2e(traced) query_p50_ms %.4f ms, query_tail_ms(%s) %.4f ms, over %d queries", median(tlat), tailName, tailV, len(tlat))
	res.layer["trace.overhead_ms"] = median(tlat) - res.e2e["query_p50_ms"]
	res.layer["qsel.bucket_calls_per_query"] = float64(tbuckets) / float64(max(len(tlat), 1))
	for _, prog := range []string{"kth", "freq", "deletemin", "mtopk"} {
		var run []float64
		for i, s := range tslots {
			if st.cycle[s].prog == prog {
				run = append(run, tlat[i])
			}
		}
		res.note("layer wire.%s.run_ms %.3f  wire.%s.twin_ms %.3f  wire.%s.overhead_ms %.3f -> query_p50_ms on wire-wide",
			prog, median(run), prog, median(twin[prog]), prog, median(run)-median(twin[prog]))
	}
	res.note("layer wire.spawn_s %.4f -> setup_s on wire-wide", median(spawns))
	acc := &runAcc{}
	if err := probeRuntime(res, wireP, acc); err != nil {
		return nil, err
	}
	acc.report(res)
	// Kernel probes on each PE's input of the first kth and freq queries,
	// generated the way those programs generate them.
	sel := make([][]uint64, wireP)
	keys := make([][]uint64, wireP)
	ones := make([][]float64, wireP)
	kthSeed, freqSeed := int64(st.cycle[0].args[0]), int64(st.cycle[1].args[0])
	for r := 0; r < wireP; r++ {
		rng := xrand.NewPE(kthSeed, r)
		sel[r] = make([]uint64, wireKthN)
		for i := range sel[r] {
			sel[r][i] = rng.Uint64()
		}
		rng = xrand.NewPE(freqSeed, r)
		keys[r], ones[r] = make([]uint64, wireFreqN), make([]float64, wireFreqN)
		for i := range keys[r] {
			u := rng.Uint64() % wireFreqU
			keys[r][i] = rng.Uint64() % (u + 1)
			ones[r][i] = 1
		}
	}
	probeKernels(res, sel, keys, ones)
	res.spans = tr.Spans()
	return res, nil
}

// fnv hashes result words for the fingerprint.
func fnv(xs []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= x
		h *= 0x100000001b3
	}
	return h
}
