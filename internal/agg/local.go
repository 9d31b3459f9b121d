package agg

import (
	"cmp"
	"math"
	"slices"

	"commtopk/internal/commbuf"
)

// Sums is one PE's locally aggregated input: every distinct key once, in
// ascending key order, with the sum of its values. Its run array is a
// pooled buffer (internal/commbuf): the owner calls Release when done so
// steady-state queries recycle it instead of allocating.
type Sums struct {
	buf   *[]ItemSum // runs are *buf; nil for empty input or once released
	total float64
}

// Len returns the number of distinct keys.
func (s *Sums) Len() int { return len(s.Runs()) }

// Total returns the sum of all values, accumulated in input order.
func (s *Sums) Total() float64 { return s.total }

// Runs returns the (key, sum) runs in ascending key order. The slice
// aliases the pooled buffer and is valid until Release.
func (s *Sums) Runs() []ItemSum {
	if s.buf == nil {
		return nil
	}
	return *s.buf
}

// Get returns key's value sum and whether key occurs (binary search).
func (s *Sums) Get(key uint64) (float64, bool) {
	runs := s.Runs()
	i, ok := slices.BinarySearchFunc(runs, key, func(r ItemSum, k uint64) int { return cmp.Compare(r.Key, k) })
	if !ok {
		return 0, false
	}
	return runs[i].Sum, true
}

// Release returns the run buffer to the pool and empties s.
func (s *Sums) Release() {
	commbuf.Put(s.buf)
	s.buf, s.total = nil, 0
}

// radixBits is the digit width of LocalAggregate's LSD radix sort: one
// digit's 2^11 counters (16 KiB) stay in L1 while its pass scatters, and
// 64-bit keys take ⌈64/11⌉ = 6 passes. LocalAggregate's histogram loop is
// unrolled for exactly radixPasses digits.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = 6
)

// LocalAggregate sums values per key — the first step of Section 8.1 and
// a useful public helper. It sorts instead of hashing. A first pass over
// the input checks the values, adds up Total in input order and counts
// every 11-bit key digit. A stable LSD radix sort then orders the
// (key, value) pairs by key in pooled buffers, one scatter pass per digit
// in which the keys differ (2 for keys below 2^20, 6 for full 64-bit
// keys); the first scatter reads the input directly. A last pass sums
// each equal-key run in place.
//
// Because the sort is stable, each key's values are summed in input
// order, exactly as a per-key accumulator filled in input order adds
// them, so every sum is bit-identical to that; keys come out ascending,
// the order in which sampling consumes its Bernoulli draws. The caller
// owns the result and should Release it. Values must be finite and
// non-negative.
func LocalAggregate(keys []uint64, values []float64) *Sums {
	if len(keys) != len(values) {
		panic("agg: keys/values length mismatch")
	}
	s := &Sums{}
	if len(keys) == 0 {
		return s
	}
	n := len(keys)
	// One histogram per digit. A digit in which every key agrees has one
	// bucket holding all n keys; its pass is skipped.
	var hist [radixPasses][1 << radixBits]int
	var total float64
	for i, k := range keys {
		v := values[i]
		if !(v >= 0 && v <= math.MaxFloat64) {
			checkValue(v)
		}
		total += v
		hist[0][k&radixMask]++
		hist[1][k>>radixBits&radixMask]++
		hist[2][k>>(2*radixBits)&radixMask]++
		hist[3][k>>(3*radixBits)&radixMask]++
		hist[4][k>>(4*radixBits)&radixMask]++
		hist[5][k>>(5*radixBits)&radixMask]++
	}
	s.total = total

	s.buf = commbuf.Get[ItemSum](n)
	var src []ItemSum // pairs sorted by the digits passed so far; nil before the first pass
	var tmp *[]ItemSum
	for d := range hist {
		shift := d * radixBits
		count := &hist[d]
		if count[keys[0]>>shift&radixMask] == n {
			continue
		}
		off := 0
		for b, c := range count {
			count[b] = off
			off += c
		}
		if src == nil {
			// The first pass scatters straight from the input.
			dst := *s.buf
			for i, k := range keys {
				b := k >> shift & radixMask
				dst[count[b]] = ItemSum{Key: k, Sum: values[i]}
				count[b]++
			}
			src = dst
			continue
		}
		if tmp == nil {
			tmp = commbuf.Get[ItemSum](n)
		}
		dst := *tmp
		for _, e := range src {
			b := e.Key >> shift & radixMask
			dst[count[b]] = e
			count[b]++
		}
		src = dst
		s.buf, tmp = tmp, s.buf
	}
	commbuf.Put(tmp)
	if src == nil {
		// Every key equals keys[0]: one run, and its input-order sum is
		// exactly Total.
		*s.buf = append((*s.buf)[:0], ItemSum{Key: keys[0], Sum: total})
		return s
	}

	// Sum each run in place. A run's sum starts from +0 like a fresh
	// accumulator (0 + v is v, except that −0 becomes +0).
	w := 0
	src[0].Sum = 0 + src[0].Sum
	for _, e := range src[1:] {
		if e.Key == src[w].Key {
			src[w].Sum += e.Sum
		} else {
			w++
			src[w] = ItemSum{Key: e.Key, Sum: 0 + e.Sum}
		}
	}
	*s.buf = src[:w+1]
	return s
}

// checkValue panics on a value LocalAggregate cannot aggregate.
func checkValue(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("agg: non-finite value")
	}
	panic("agg: negative value")
}
