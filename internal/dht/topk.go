package dht

import (
	"sort"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// SortKVDesc orders by count descending, key ascending (deterministic).
func SortKVDesc(items []KV) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
}

// SelectTopKTable returns the k entries with the highest counts from a
// DHT-sharded count Table, on all PEs, using the unsorted selection
// algorithm of Section 4.1 on the counts (descending order is realized by
// complementing the count). Ties at the threshold are split
// deterministically — across PEs with a prefix sum, within a PE by
// ascending key, so shard iteration order cannot leak into the result —
// and exactly k entries are returned (fewer if fewer exist globally).
// Shared by the frequent-objects (§7) and sum-aggregation (§8) layers.
// The shard table is only read; the result is freshly gathered and
// caller-owned. Collective.
//
// It is the blocking driver of selectTopKStep (see async.go for the
// algorithm — the rank of the threshold in the complemented-count
// multiset splits the local entries into a strictly-above band and a tie
// band compressed forward in one pass, and a prefix sum splits the ties
// deterministically across PEs).
func SelectTopKTable(pe *comm.PE, shard *Table, k int, rng *xrand.RNG) []KV {
	items := comm.ScratchSlice[KV](pe, "dht.topk.items", shard.Len())[:0]
	items = shard.AppendKVs(items)
	st := newSelectTopKStep(pe, items, k, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}
