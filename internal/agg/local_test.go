package agg

import (
	"math"
	"testing"
)

// fuzzPairs decodes 5-byte records into (key, value) pairs. Key bytes b0
// and b1 are XORed into base at bit offsets sh&63 and sh>>2&63, so small
// corpora reach duplicate-heavy, top-byte-only and full-width keys. The
// 24-bit value u maps to u/10 (inexact binary fractions, so summation
// order shows in the bits) and u = 0 to −0.
func fuzzPairs(data []byte, sh uint8, base uint64) ([]uint64, []float64) {
	var keys []uint64
	var vals []float64
	for ; len(data) >= 5; data = data[5:] {
		keys = append(keys, base^uint64(data[0])<<(sh&63)^uint64(data[1])<<(sh>>2&63))
		u := uint32(data[2]) | uint32(data[3])<<8 | uint32(data[4])<<16
		v := float64(u) / 10
		if u == 0 {
			v = math.Copysign(0, -1)
		}
		vals = append(vals, v)
	}
	return keys, vals
}

// FuzzLocalAggregate checks LocalAggregate against a map that sums each
// key's values in input order: bit-identical per-key sums and Total,
// strictly ascending keys, one run per distinct key.
func FuzzLocalAggregate(f *testing.F) {
	rec := func(recs ...[5]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r[:]...)
		}
		return b
	}
	f.Add([]byte{}, uint8(0), uint64(0))
	f.Add(rec([5]byte{7, 0, 1, 2, 3}), uint8(0), uint64(0))
	f.Add(rec([5]byte{0, 0, 1, 0, 0}, [5]byte{0, 0, 3, 0, 0}, [5]byte{0, 0, 7, 1, 0}), uint8(0), uint64(42))
	f.Add(rec([5]byte{3, 0, 1, 0, 0}, [5]byte{1, 0, 2, 0, 0}, [5]byte{3, 0, 0, 0, 0}, [5]byte{255, 0, 9, 0, 0}, [5]byte{9, 0, 0, 0, 0}), uint8(56), uint64(0x00ab_cdef_0123_4567))
	var wide []byte
	for i := 0; i < 64; i++ {
		wide = append(wide, rec([5]byte{byte(i * 37), byte(i % 5), byte(i), 3, 0})...)
	}
	f.Add(wide, uint8(0xb3), uint64(0x9e37_79b9_7f4a_7c15))

	f.Fuzz(func(t *testing.T, data []byte, sh uint8, base uint64) {
		keys, vals := fuzzPairs(data, sh, base)
		want := map[uint64]float64{}
		var total float64
		for i, k := range keys {
			want[k] += vals[i]
			total += vals[i]
		}
		s := LocalAggregate(keys, vals)
		defer s.Release()
		if math.Float64bits(s.Total()) != math.Float64bits(total) {
			t.Fatalf("Total %v, want %v", s.Total(), total)
		}
		if s.Len() != len(want) {
			t.Fatalf("Len %d, want %d distinct keys", s.Len(), len(want))
		}
		runs := s.Runs()
		for i, r := range runs {
			if i > 0 && runs[i-1].Key >= r.Key {
				t.Fatalf("runs %d, %d not strictly ascending: %x, %x", i-1, i, runs[i-1].Key, r.Key)
			}
			if w, ok := want[r.Key]; !ok || math.Float64bits(r.Sum) != math.Float64bits(w) {
				t.Fatalf("key %x: sum %v (bits %x), want %v (bits %x)", r.Key, r.Sum, math.Float64bits(r.Sum), w, math.Float64bits(w))
			}
			if g, ok := s.Get(r.Key); !ok || math.Float64bits(g) != math.Float64bits(r.Sum) {
				t.Fatalf("Get(%x) = %v, %v; run holds %v", r.Key, g, ok, r.Sum)
			}
		}
		if _, in := want[^base]; !in {
			if _, ok := s.Get(^base); ok {
				t.Fatalf("Get(%x) found an absent key", ^base)
			}
		}
	})
}
