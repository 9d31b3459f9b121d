package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"commtopk/internal/agg"
	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/qsel"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// batch-deep: a closed loop with one caller on a p = 4 mailbox machine
// holding 2^21 keys per PE: gen.SelectionInput (Zipf-skewed, many
// duplicates) for selection, gen.FrequencyInput (Zipf s = 1 over 2^20
// ids) with Exp(1) values for counting and summing. A seeded cycle of
// queries runs sel.Kth, sel.SmallestK followed by redist.Balance of its
// uneven output, freq.PAC and agg.PAC.
const (
	batchP     = 4
	batchPerPE = 1 << 21
	batchLogU  = 20 // selection universe ≤ 2^20, so the oracle is a counting array
	batchFreqU = 1 << 20
	batchTopK  = 32
	batchEps   = 0.01
	batchDelta = 1e-6
)

// Query kinds of batch-deep, in cycle order.
const (
	kindKth = iota
	kindSmallestK
	kindFreq
	kindAgg
)

var batchKindNames = []string{"sel.kth", "sel.smallestk+redist.balance", "freq.pac", "agg.pac"}

// batchMix is how many slots of the 28-query cycle each kind gets. By
// latency the kinds order SmallestK < Kth < freq < agg, so the median
// (quantile 0.5) falls inside the Kth group (0.21..0.64) and the p90
// tail inside the agg group (0.86..1), not on a boundary between two
// kinds.
var batchMix = [...]int{kindKth: 12, kindSmallestK: 6, kindFreq: 6, kindAgg: 4}

type batchQuery struct {
	kind int
	k    int64
	seed int64
}

type batchState struct {
	sel    [][]uint64
	keys   [][]uint64
	vals   [][]float64
	m      *comm.Machine
	cycle  []batchQuery
	total  int64 // elements per input
	cnt    []int64
	below  []int64  // below[v] = #elements < v
	hBelow []uint64 // multiset hash of the elements < v
	exact  []int64  // exact frequency per id
	sums   []float64
	sumAll float64
	kthCnt int64   // K-th largest exact count
	kthSum float64 // K-th largest exact sum
}

func (st *batchState) close() {
	if st.m != nil {
		st.m.Close()
		st.m = nil
	}
}

func elemHash(v uint64) uint64 { return dht.Mix(v ^ 0x9e3779b97f4a7c15) }

func batchSetup(seed int64) (*batchState, setupTimes, error) {
	var t setupTimes
	clk := time.Now()
	st := &batchState{sel: make([][]uint64, batchP), keys: make([][]uint64, batchP), vals: make([][]float64, batchP)}
	z := gen.NewZipf(batchFreqU, 1)
	for r := 0; r < batchP; r++ {
		st.sel[r] = gen.SelectionInput(xrand.NewPE(seed, r), batchPerPE, batchLogU)
		st.keys[r] = gen.FrequencyInput(xrand.NewPE(seed+1, r), z, batchPerPE)
		rng := xrand.NewPE(seed+2, r)
		v := make([]float64, batchPerPE)
		for i := range v {
			v[i] = -math.Log(1 - rng.Float64())
		}
		st.vals[r] = v
	}
	st.total = batchP * batchPerPE
	// Ranks are stratified: the j-th of c slots of a kind draws from the
	// j-th of c equal bands, so the cycle covers the whole range for every
	// seed and the seed moves the per-query figures little.
	rng := xrand.New(seed + 3)
	for j := 0; j < slices.Max(batchMix[:]); j++ {
		for kind, c := range batchMix {
			if j >= c {
				continue
			}
			u := (float64(j) + rng.Float64()) / float64(c)
			q := batchQuery{kind: kind, seed: int64(rng.Uint64() >> 2)}
			switch kind {
			case kindKth:
				q.k = 1 + int64(u*float64(st.total-1))
			case kindSmallestK:
				q.k = st.total/256 + int64(u*float64(st.total/32-st.total/256))
			}
			st.cycle = append(st.cycle, q)
		}
	}
	t.gen = since(&clk)

	st.buildOracles()
	t.oracle = since(&clk)

	st.m = comm.NewMachine(comm.MailboxConfig(batchP))
	t.build = since(&clk)
	// Warm-up: one query of each kind (the cycle starts with one of each)
	// fills the stepper pools, scratch buffers and DHT table pools.
	for _, q := range st.cycle[:len(batchMix)] {
		if _, err := st.runQuery(q, nil, -1, nil); err != nil {
			st.close()
			return nil, t, fmt.Errorf("warm-up %s: %w", batchKindNames[q.kind], err)
		}
	}
	t.warmup = since(&clk)
	return st, t, nil
}

// buildOracles derives the answer keys from the inputs: value counts
// with rank and multiset-hash prefixes for selection, exact frequencies
// and sums for counting.
func (st *batchState) buildOracles() {
	st.cnt = make([]int64, 1<<batchLogU+2)
	for _, s := range st.sel {
		for _, v := range s {
			st.cnt[v]++
		}
	}
	st.below = make([]int64, len(st.cnt)+1)
	st.hBelow = make([]uint64, len(st.cnt)+1)
	for v, c := range st.cnt {
		st.below[v+1] = st.below[v] + c
		st.hBelow[v+1] = st.hBelow[v] + uint64(c)*elemHash(uint64(v))
	}
	st.exact = make([]int64, batchFreqU+1)
	st.sums = make([]float64, batchFreqU+1)
	st.sumAll = 0
	for r := range st.keys {
		for i, k := range st.keys[r] {
			st.exact[k]++
			st.sums[k] += st.vals[r][i]
			st.sumAll += st.vals[r][i]
		}
	}
	st.kthCnt = kthLargest(st.exact, batchTopK)
	st.kthSum = kthLargest(st.sums, batchTopK)
}

func kthLargest[T int64 | float64](xs []T, k int) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)-k]
}

// batchOut is one query's outputs and meters.
type batchOut struct {
	slot    int // position in the query cycle
	wall    time.Duration
	kth     uint64
	parts   [][]uint64
	fres    freq.Result
	ares    agg.Result
	stats   comm.Stats
	buckets int64
}

// runQuery runs q as one Run on every PE; tr (may be nil) records a
// query span with one PE span per layer call under it.
func (st *batchState) runQuery(q batchQuery, tr *Tracer, qid int, acc *runAcc) (batchOut, error) {
	var out batchOut
	out.parts = make([][]uint64, batchP)
	st.m.ResetStats()
	b0 := qsel.BucketSelects()
	root := tr.Begin("query."+batchKindNames[q.kind], -1, qid, -1)
	wall, err := acc.run(st.m, func(pe *comm.PE) {
		r := pe.Rank()
		rng := xrand.NewPE(q.seed, r)
		switch q.kind {
		case kindKth:
			tr.peCall("sel.kth", root, qid, pe, func() {
				v := sel.Kth(pe, st.sel[r], q.k, rng)
				if r == 0 {
					out.kth = v
				}
			})
		case kindSmallestK:
			var part []uint64
			tr.peCall("sel.smallestk", root, qid, pe, func() { part = sel.SmallestK(pe, st.sel[r], q.k, rng) })
			tr.peCall("redist.balance", root, qid, pe, func() { out.parts[r] = redist.Balance(pe, part) })
		case kindFreq:
			tr.peCall("freq.pac", root, qid, pe, func() {
				res := freq.PAC(pe, st.keys[r], freq.Params{K: batchTopK, Eps: batchEps, Delta: batchDelta}, rng)
				if r == 0 {
					out.fres = res
				}
			})
		case kindAgg:
			tr.peCall("agg.pac", root, qid, pe, func() {
				res := agg.PAC(pe, st.keys[r], st.vals[r], agg.Params{K: batchTopK, Eps: batchEps, Delta: batchDelta}, rng)
				if r == 0 {
					out.ares = res
				}
			})
		}
	})
	out.wall = wall
	tr.End(root)
	out.stats = st.m.Stats()
	out.buckets = qsel.BucketSelects() - b0
	return out, err
}

// check verifies one query's answer against the oracles. It returns a
// description of the first discrepancy, or "".
func (st *batchState) check(q batchQuery, o batchOut) string {
	switch q.kind {
	case kindKth:
		if want := st.kthValue(q.k); o.kth != want {
			return fmt.Sprintf("Kth(%d) = %d, want %d", q.k, o.kth, want)
		}
	case kindSmallestK:
		thr := st.kthValue(q.k)
		p := int64(len(o.parts))
		nbar := (q.k + p - 1) / p
		var n, atThr int64
		var h uint64
		for r, part := range o.parts {
			if int64(len(part)) > nbar {
				return fmt.Sprintf("SmallestK(%d)+Balance: PE %d holds %d > ceil(k/p) = %d", q.k, r, len(part), nbar)
			}
			for _, v := range part {
				switch {
				case v > thr:
					return fmt.Sprintf("SmallestK(%d): element %d above the k-th value %d", q.k, v, thr)
				case v == thr:
					atThr++
				default:
					h += elemHash(v)
				}
				n++
			}
		}
		if n != q.k || atThr != q.k-st.below[thr] || h != st.hBelow[thr] {
			return fmt.Sprintf("SmallestK(%d)+Balance: %d elements, %d at the threshold (want %d), membership hash mismatch=%v",
				q.k, n, atThr, q.k-st.below[thr], h != st.hBelow[thr])
		}
	case kindFreq:
		bound := batchEps * float64(st.total)
		if len(o.fres.Items) != batchTopK {
			return fmt.Sprintf("freq.PAC returned %d items, want %d", len(o.fres.Items), batchTopK)
		}
		for _, it := range o.fres.Items {
			ex := st.exact[min(it.Key, batchFreqU)]
			if math.Abs(float64(it.Count-ex)) > bound || float64(ex) < float64(st.kthCnt)-2*bound {
				return fmt.Sprintf("freq.PAC item %d: estimate %d, exact %d, k-th exact %d, bound %.0f", it.Key, it.Count, ex, st.kthCnt, bound)
			}
		}
	case kindAgg:
		bound := batchEps * st.sumAll
		if len(o.ares.Items) != batchTopK {
			return fmt.Sprintf("agg.PAC returned %d items, want %d", len(o.ares.Items), batchTopK)
		}
		for _, it := range o.ares.Items {
			ex := st.sums[min(it.Key, batchFreqU)]
			if math.Abs(it.Sum-ex) > bound || ex < st.kthSum-2*bound {
				return fmt.Sprintf("agg.PAC item %d: estimate %.1f, exact %.1f, k-th exact %.1f, bound %.1f", it.Key, it.Sum, ex, st.kthSum, bound)
			}
		}
	}
	return ""
}

// kthValue is the element of global rank k (1-based).
func (st *batchState) kthValue(k int64) uint64 {
	v, _ := slices.BinarySearch(st.below, k)
	return uint64(v - 1)
}

// meterKey is a query's host-independent meters.
func meterKey(s comm.Stats, buckets int64) string {
	return fmt.Sprintf("words=%d msgs=%d h=%d clock=%g buckets=%d", s.TotalWords, s.TotalSends, s.BottleneckWords(), s.MaxClock, buckets)
}

// closedLoop runs the cycle for dur with one caller, checking every
// answer, and returns the wall time of each correct query in ms with its
// outputs. The first cycle always completes. first holds each slot's
// first correct run; every later run of the slot must repeat its meters.
func (st *batchState) closedLoop(res *result, dur time.Duration, tr *Tracer, acc *runAcc, first []*batchOut) ([]float64, []batchOut, error) {
	var lat []float64
	var outs []batchOut
	start := time.Now()
	for i := 0; i < len(st.cycle) || time.Since(start) < dur; i++ {
		slot := i % len(st.cycle)
		q := st.cycle[slot]
		o, err := st.runQuery(q, tr, i, acc)
		o.slot = slot
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", batchKindNames[q.kind], err)
		}
		res.attempted++
		if msg := st.check(q, o); msg != "" {
			res.failed++
			res.fail("batch-deep query %d: %s", i, msg)
			continue
		}
		o.parts = nil
		if first[slot] == nil {
			first[slot] = &o
		} else if key, want := meterKey(o.stats, o.buckets), meterKey(first[slot].stats, first[slot].buckets); key != want {
			res.fail("nondeterminism: batch-deep slot %d (%s) meters %q, first run %q", slot, batchKindNames[q.kind], key, want)
		}
		lat = append(lat, ms(o.wall))
		outs = append(outs, o)
	}
	return lat, outs, nil
}

func runBatchDeep(cfg runCfg) (*result, error) {
	res := newResult()
	st, err := repeatSetup(res, func() (*batchState, setupTimes, error) { return batchSetup(cfg.seed) }, (*batchState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	first := make([]*batchOut, len(st.cycle))
	var tr *Tracer
	var tlat []float64
	var touts []batchOut
	var acc *runAcc
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
		tr, acc = newTracer(), &runAcc{}
		if tlat, touts, err = st.closedLoop(res, dur, tr, nil, first); err != nil {
			return nil, err
		}
	}
	lat, outs, err := st.closedLoop(res, dur, nil, acc, first)
	if err != nil {
		return nil, err
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no query answered correctly")
	}
	var cycle []comm.Stats
	for slot, q := range st.cycle {
		if first[slot] == nil {
			continue // never answered correctly; already counted as failed
		}
		cycle = append(cycle, first[slot].stats)
		res.fingerprint = append(res.fingerprint, fmt.Sprintf("slot %d %s k=%d %s", slot, batchKindNames[q.kind], q.k,
			meterKey(first[slot].stats, first[slot].buckets)))
	}
	tailName := reportClosedLoop(res, lat, cycle)
	res.note("%d queries in %d-slot cycles; tail = %s", len(lat), len(st.cycle), tailName)
	for kind, name := range batchKindNames {
		var kl []float64
		for _, o := range outs {
			if st.cycle[o.slot].kind == kind {
				kl = append(kl, ms(o.wall))
			}
		}
		res.note("%-30s n=%4d p50 %9.3f ms", name, len(kl), median(kl))
	}
	if !cfg.trace {
		return res, nil
	}

	tailName, tailV := tail(tlat)
	res.note("e2e(traced) query_p50_ms %.4f ms, query_tail_ms(%s) %.4f ms, over %d queries", median(tlat), tailName, tailV, len(tlat))
	res.layer["trace.overhead_ms"] = median(tlat) - res.e2e["query_p50_ms"]
	var buckets int64
	for _, o := range touts {
		buckets += o.buckets
	}
	res.layer["qsel.bucket_calls_per_query"] = float64(buckets) / float64(max(len(touts), 1))
	spans := tr.Spans()
	layerSplit(res, spans, []string{"sel.kth", "sel.smallestk", "redist.balance", "freq.pac", "agg.pac"}, "query_p50_ms on batch-deep")
	acc.report(res)
	if err := probeRuntime(res, batchP, nil); err != nil {
		return nil, err
	}
	probeKernels(res, st.sel, st.keys, st.vals)
	res.spans = spans
	return res, nil
}

// layerSplit reports, per layer call X, the median over queries of:
// X.busy_ms (PE span minus its wait, max over PEs), X.wait_ms (max over
// PEs), X.words and X.msgs (max over PEs of SentWords/Sends deltas) and
// X.clock (max over PEs of the Clock delta).
func layerSplit(res *result, spans []Span, names []string, target string) {
	groups := byName(spans)
	for _, name := range names {
		perQuery := map[int]*[5]float64{}
		var order []int
		for _, s := range groups[name] {
			v, ok := perQuery[s.Query]
			if !ok {
				v = &[5]float64{}
				perQuery[s.Query] = v
				order = append(order, s.Query)
			}
			v[0] = max(v[0], float64(s.dur()-s.WaitNs)/1e6)
			v[1] = max(v[1], float64(s.WaitNs)/1e6)
			v[2] = max(v[2], float64(s.Words))
			v[3] = max(v[3], float64(s.Msgs))
			v[4] = max(v[4], s.Clock)
		}
		cols := make([][]float64, 5)
		for _, q := range order {
			for c := range cols {
				cols[c] = append(cols[c], perQuery[q][c])
			}
		}
		res.note("layer %-16s busy_ms %9.3f  wait_ms %9.3f  words %10.0f  msgs %7.0f  clock %10.0f  (n=%d) -> %s",
			name, median(cols[0]), median(cols[1]), median(cols[2]), median(cols[3]), median(cols[4]), len(order), target)
	}
}
