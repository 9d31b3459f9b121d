package experiments

import (
	"fmt"
	"testing"
	"time"

	"commtopk/internal/agg"
	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/qsel"
	"commtopk/internal/treap"
	"commtopk/internal/xrand"
)

// The local-kernel microbenchmark family (-exp kernels and the
// Kernels/... entries of the JSON pipeline): the sort-free selection
// kernels under every pivot-extraction and residual-solve site, the
// dht.Table probe loop, and the treap's structural operations. These are
// host-only measurements — no machine, no meters — because the kernels
// are exactly the local-work x term of the cost model; the distributed
// meters cannot move (pinned by the differential suites).
//
// Engine comparison semantics: the value-only call sites used to do
// "copy into scratch, then scalar Floyd–Rivest" (the copy paid either
// explicitly or as the concat that built the scratch), so the scalar
// twin times copy+SelectScalar while SelectInto runs bare — its first
// fused pass is the copy. Select times the in-place engine dispatch on
// an equally fresh copy.

// kernelDist is one input distribution of the sweep.
type kernelDist struct {
	name string
	gen  func(rng *xrand.RNG, n int) []uint64
}

// kernelDists covers the branch-predictability spectrum the two bucket
// engines were designed against: uniform random (counting wins),
// duplicate-heavy (16-bit level resolves narrow ranges), low-byte-only
// (adversarial for radix narrowing: every high byte constant), sorted
// (ascending fast path), and sawtooth (adversarial, period 1024: the
// branch predictor learns Floyd–Rivest's partition, so the scalar path
// is the one to beat and the bucket engines lose — kept in the family
// precisely to keep that regression visible).
var kernelDists = []kernelDist{
	{"random", func(rng *xrand.RNG, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	}},
	{"dupheavy", func(rng *xrand.RNG, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64() % 16
		}
		return s
	}},
	{"lowbyte", func(rng *xrand.RNG, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = 0xabcdef0000000000 | (rng.Uint64() & 0xff)
		}
		return s
	}},
	{"sorted", func(rng *xrand.RNG, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(i)
		}
		return s
	}},
	{"sawtooth", func(rng *xrand.RNG, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(i % 1024)
		}
		return s
	}},
}

// kernelSink defeats dead-code elimination of the benchmark bodies.
var kernelSink uint64

// kernelEngines are the three selection paths of the sweep (see the
// package comment for why scalar and select pay an explicit copy).
var kernelEngines = []struct {
	name string
	run  func(work, src []uint64, k int)
}{
	{"scalar", func(work, src []uint64, k int) {
		copy(work, src)
		kernelSink += qsel.SelectScalar(work, k)
	}},
	{"select", func(work, src []uint64, k int) {
		copy(work, src)
		kernelSink += qsel.Select(work, k)
	}},
	{"into", func(work, src []uint64, k int) {
		kernelSink += qsel.SelectInto(work, src, k)
	}},
}

// timeKernel measures one engine on one input: a single timed run in
// quick mode (the CI smoke tier), otherwise the best of three — the
// right statistic for a deterministic kernel under scheduler noise.
func timeKernel(run func(), quick bool) time.Duration {
	reps := 3
	if quick {
		reps = 1
	}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		run()
		d := time.Since(t0)
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// KernelsTables renders the -exp kernels family: the selection-engine
// sweep over n and distribution, plus the probe-loop, treap
// structural-operation and LocalAggregate rows. quick selects the CI
// smoke tier — one run per op and n capped at 2^18.
func KernelsTables(quick bool) []Table {
	nMax := 1 << 24
	if quick {
		nMax = 1 << 18
	}
	selT := Table{
		Title: "Local kernels: selection engines (ns/element, rank n/2)",
		Notes: "scalar = copy+Floyd-Rivest (the pre-PR6 value-only path); select = in-place engine dispatch\n" +
			"(bucket within [2^11, 2^15], scalar outside); into = SelectInto compress engine (no copy: its\n" +
			"first fused pass is the copy). sawtooth is the documented adversarial case: the predictor\n" +
			"learns the periodic partition branches, so scalar wins there at every n.",
		Header: []string{"n", "dist", "scalar", "select", "into", "into vs scalar"},
	}
	for n := 1 << 10; n <= nMax; n <<= 2 {
		for _, d := range kernelDists {
			src := d.gen(xrand.New(int64(n)), n)
			work := make([]uint64, n)
			k := n / 2
			perElem := make([]float64, len(kernelEngines))
			for ei, e := range kernelEngines {
				e := e
				dur := timeKernel(func() { e.run(work, src, k) }, quick)
				perElem[ei] = float64(dur.Nanoseconds()) / float64(n)
			}
			selT.Rows = append(selT.Rows, []string{
				fmt.Sprintf("2^%d", log2i(n)),
				d.name,
				fmt.Sprintf("%.2f", perElem[0]),
				fmt.Sprintf("%.2f", perElem[1]),
				fmt.Sprintf("%.2f", perElem[2]),
				fmt.Sprintf("%+.0f%%", (perElem[2]/perElem[0]-1)*100),
			})
		}
	}

	locT := Table{
		Title: "Local kernels: dht.Table probe and treap structural ops",
		Notes: "probe: Get over every inserted key (hit) plus as many misses, SWAR group-matched control\n" +
			"words; treap: random insert/delete churn plus split/concat cycles, iterative alloc-free paths.",
		Header: []string{"kernel", "n", "ns/op"},
	}
	nTab := 1 << 16
	if quick {
		nTab = 1 << 12
	}
	dur := timeKernel(func() { kernelSink += benchTableProbe(nTab) }, quick)
	locT.Rows = append(locT.Rows, []string{"table-probe", fmt.Sprintf("2^%d", log2i(nTab)),
		fmt.Sprintf("%.1f", float64(dur.Nanoseconds())/float64(2*nTab))})
	nTr := 1 << 13
	if quick {
		nTr = 1 << 10
	}
	dur = timeKernel(func() { kernelSink += benchTreapChurn(nTr) }, quick)
	locT.Rows = append(locT.Rows, []string{"treap-churn", fmt.Sprintf("2^%d", log2i(nTr)),
		fmt.Sprintf("%.1f", float64(dur.Nanoseconds())/float64(4*nTr))})

	aggT := Table{
		Title: "Local kernels: agg.LocalAggregate (Zipf s=1 over 2^20 ids, Exp(1) values)",
		Notes: "narrow = the raw ids (below 2^20, the batch-deep shape); wide = the same ids spread over\n" +
			"64 bits by dht.Mix. One op aggregates all keys and releases the result.",
		Header: []string{"kernel", "n", "ns/key", "allocs/op"},
	}
	nAgg := localAggN
	if quick {
		nAgg = 1 << 18
	}
	for _, shape := range localAggShapes {
		keys, values := localAggInput(shape, nAgg)
		run := func() { runLocalAggregate(keys, values) }
		run() // fill the buffer pool, as a steady-state query finds it
		dur := timeKernel(run, quick)
		aggT.Rows = append(aggT.Rows, []string{"local-aggregate/" + shape, fmt.Sprintf("2^%d", log2i(nAgg)),
			fmt.Sprintf("%.1f", float64(dur.Nanoseconds())/float64(nAgg)),
			fmt.Sprintf("%.0f", testing.AllocsPerRun(1, run))})
	}
	return []Table{selT, locT, aggT}
}

// localAggN is the per-PE key count of the LocalAggregate rows, batch-deep's.
const localAggN = 1 << 21

var localAggShapes = []string{"narrow", "wide"}

// localAggInput draws n (key, value) pairs: Zipf(1) ids below 2^20 with
// Exp(1) values, the ids spread over all 64 bits by dht.Mix for "wide".
func localAggInput(shape string, n int) ([]uint64, []float64) {
	keys, values := gen.WeightedInput(xrand.New(5), gen.NewZipf(1<<20, 1), n)
	if shape == "wide" {
		for i, k := range keys {
			keys[i] = dht.Mix(k)
		}
	}
	return keys, values
}

// runLocalAggregate aggregates keys/values and releases the result, as
// every sum-aggregation query does.
func runLocalAggregate(keys []uint64, values []float64) {
	s := agg.LocalAggregate(keys, values)
	kernelSink += uint64(s.Len())
	s.Release()
}

func log2i(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// benchTableProbe builds a count table of n keys and probes every key
// (hit) and n absent keys (miss); returns a sink value.
func benchTableProbe(n int) uint64 {
	t := dht.NewTable(n)
	rng := xrand.New(99)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		t.Add(keys[i], 1)
	}
	var sink uint64
	for _, k := range keys {
		if v, ok := t.Get(k); ok {
			sink += uint64(v)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := t.Get(rng.Uint64()); ok {
			sink++
		}
	}
	t.Release()
	return sink
}

// benchTreapChurn exercises the iterative treap paths the bulk priority
// queue leans on: n inserts, n/2 deletes, rank splits and concats, and a
// full in-order walk; returns a sink value.
func benchTreapChurn(n int) uint64 {
	tr := treap.New[uint64](5)
	rng := xrand.New(7)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		tr.Insert(keys[i])
	}
	for i := 0; i < n/2; i++ {
		tr.Delete(keys[i])
	}
	for i := 0; i < 8; i++ {
		low := tr.SplitByRank(tr.Len() / 2)
		low.Concat(tr)
		*tr = *low
	}
	var sink uint64
	tr.Ascend(func(k uint64) bool {
		sink += k
		return true
	})
	return sink
}

// KernelSuite runs the pipeline subset of the kernel family through
// testing.Benchmark and returns Kernels/... entries for BENCH_PR<N>.json:
// the full distribution set at n = 2^20 (the acceptance-criterion size)
// for the value-only engines, the crossover sizes on random input for all
// three, the memory-scale point, the probe/treap kernels, and
// LocalAggregate on narrow and wide keys at batch-deep's 2^21 per PE.
func KernelSuite(progress func(string)) []BenchResult {
	var out []BenchResult
	add := func(name string, body func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b)
		})
		res := BenchResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		out = append(out, res)
		if progress != nil {
			progress(fmt.Sprintf("%-40s %12.0f ns/op %10.1f allocs/op %12.0f B/op",
				name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp))
		}
	}
	selCase := func(engine int, dist kernelDist, n int) {
		e := kernelEngines[engine]
		add(fmt.Sprintf("Kernels/Select/%s/%s/n=2^%d", e.name, dist.name, log2i(n)), func(b *testing.B) {
			src := dist.gen(xrand.New(int64(n)), n)
			work := make([]uint64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.run(work, src, n/2)
			}
		})
	}
	for di := range kernelDists {
		selCase(0, kernelDists[di], 1<<20) // scalar: the before
		selCase(2, kernelDists[di], 1<<20) // into: the after
	}
	for _, n := range []int{1 << 12, 1 << 16} { // in-place engine band and its upper edge
		for e := range kernelEngines {
			selCase(e, kernelDists[0], n)
		}
	}
	selCase(0, kernelDists[0], 1<<24) // memory scale
	selCase(2, kernelDists[0], 1<<24)
	add("Kernels/TableProbe/n=2^16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernelSink += benchTableProbe(1 << 16)
		}
	})
	add("Kernels/TreapChurn/n=2^13", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernelSink += benchTreapChurn(1 << 13)
		}
	})
	for _, shape := range localAggShapes {
		add(fmt.Sprintf("Kernels/LocalAggregate/%s/n=2^%d", shape, log2i(localAggN)), func(b *testing.B) {
			keys, values := localAggInput(shape, localAggN)
			runLocalAggregate(keys, values)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runLocalAggregate(keys, values)
			}
		})
	}
	return out
}
