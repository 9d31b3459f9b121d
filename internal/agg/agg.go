// Package agg implements top-k sum aggregation (Section 8 of the paper):
// the input is a multiset of (key, value) pairs with non-negative values,
// and the query asks for the k keys with the largest value sums.
//
// The algorithms carry over from the frequent-objects case with a
// different sampling procedure (Section 8.1): the local input is first
// aggregated per key, and each aggregated value v yields ⌊v/v_avg⌋
// deterministic samples plus one more with probability frac(v/v_avg),
// where v_avg = m/s for total value m and target sample size s. Per key
// and PE the sample count then deviates from its expectation by at most 1,
// which is what the Hoeffding analysis of Theorem 15 needs.
//
// The local aggregation (LocalAggregate) is a stable radix sort of the
// (key, value) pairs followed by one pass that sums equal-key runs, not a
// hash table: it yields the keys in ascending order, which sampling needs
// anyway so that each key's Bernoulli draw is a fixed function of the RNG
// stream, and stability makes every per-key sum add its values in input
// order. Sampling is then a linear scan over the runs, and ECSum's exact
// candidate sums are binary searches in them.
package agg

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/xrand"
)

// Params configures a top-k sum aggregation query.
type Params struct {
	// K is the number of keys to return.
	K int
	// Eps is the relative error bound (relative to the total sum m).
	Eps float64
	// Delta is the failure probability.
	Delta float64
	// Route selects the DHT insertion routing.
	Route dht.RouteMode
	// KStarOverride fixes the exactly-summed candidate count for ECSum.
	KStarOverride int
}

func (p Params) validate() {
	if p.K < 1 || p.Eps <= 0 || p.Delta <= 0 || p.Delta >= 1 {
		panic(fmt.Sprintf("agg: invalid params %+v", p))
	}
}

// ItemSum is one key with a value sum: the (estimated or exact) global
// sum in Result.Items, the PE-local sum in a Sums run.
type ItemSum struct {
	Key uint64
	Sum float64
}

// Result is the outcome of a sum-aggregation query; identical on all PEs.
type Result struct {
	// Items are the top-k keys by sum, largest first.
	Items []ItemSum
	// SampleSize is the realized global sample size (in sample units).
	SampleSize int64
	// VAvg is the value mass per sample unit.
	VAvg float64
	// Exact reports whether sums are exact.
	Exact bool
	// KStar is the exactly summed candidate count (ECSum only).
	KStar int
}

// sampleAggregated converts aggregated values into integer sample counts
// (as KV pairs in ascending key order): floor + Bernoulli residual
// (Section 8.1). One linear scan over the ascending runs, so each key's
// Bernoulli draw is a fixed function of the RNG stream: visiting keys in
// a layout-dependent order would let the layout decide which key consumed
// which deviate, making the sampled counts — and hence ECSum's candidate
// set and realized ε̃ — vary between runs with identical seeds. The
// second result is the realized local sample size.
func sampleAggregated(local *Sums, vavg float64, rng *xrand.RNG) ([]dht.KV, int64) {
	out := make([]dht.KV, 0, local.Len())
	var total int64
	for _, r := range local.Runs() {
		q := r.Sum / vavg
		c := int64(q)
		if rng.Bernoulli(q - float64(c)) {
			c++
		}
		if c > 0 {
			out = append(out, dht.KV{Key: r.Key, Count: c})
			total += c
		}
	}
	return out, total
}

// PAC computes an (ε, δ)-approximation of the top-k highest-summing keys
// (Theorem 15). Collective. Blocking driver over the same state machine
// PACStep exposes for comm.RunAsync.
func PAC(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG) Result {
	st := newAggStep(pe, keys, values, p, false, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

// ECSum is the exact-summation variant (end of Section 8.2): like PAC,
// but the k* highest-sampled candidates are summed exactly — and unlike
// the frequent-objects case, no second input scan is needed: "a lookup in
// the local aggregation result now suffices". Collective. Blocking
// driver over the ECSumStep state machine.
func ECSum(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG) Result {
	st := newAggStep(pe, keys, values, p, true, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

// ExactTopSums computes the exact answer through the DHT (ground truth
// for tests; not communication-efficient). Collective.
func ExactTopSums(pe *comm.PE, keys []uint64, values []float64, k int, route dht.RouteMode, rng *xrand.RNG) []ItemSum {
	local := LocalAggregate(keys, values)
	defer local.Release()
	// Scale to fixed point so the counting DHT can carry sums. Sorted key
	// order keeps the routed batches deterministic.
	const scale = 1 << 20
	runs := local.Runs()
	fixed := make([]dht.KV, len(runs))
	for i, r := range runs {
		fixed[i] = dht.KV{Key: r.Key, Count: int64(r.Sum * scale)}
	}
	shard := dht.CountKV(pe, fixed, route)
	top := dht.SelectTopKTable(pe, shard, k, rng)
	shard.Release()
	items := make([]ItemSum, len(top))
	for i, kv := range top {
		items[i] = ItemSum{Key: kv.Key, Sum: float64(kv.Count) / scale}
	}
	return items
}
