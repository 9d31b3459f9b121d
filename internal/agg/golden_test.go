package agg

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// goldenInput returns PE rank's (keys, values) for one golden input shape.
// Values are Exp(1) draws; keys depend on the shape:
//
//	zipf    Zipf keys below 2^20 (the narrow shape the benchmark uses)
//	wide    the same draws spread over all 64 bits by dht.Mix
//	equal   a single key everywhere
//	topbyte keys that differ only in their top byte
//	empty   zipf, except PE 0 holds no input
func goldenInput(shape string, rank, perPE int) ([]uint64, []float64) {
	if shape == "empty" && rank == 0 {
		return nil, nil
	}
	keys, vals := gen.WeightedInput(xrand.NewPE(61, rank), goldenZipf, perPE)
	for i, k := range keys {
		switch shape {
		case "wide":
			keys[i] = dht.Mix(k)
		case "equal":
			keys[i] = 42
		case "topbyte":
			keys[i] = k<<56 | 0x00ab_cdef_0123_4567
		}
	}
	return keys, vals
}

var goldenZipf = gen.NewZipf(1<<20, 1)

// aggDigest condenses one query's result and meters: a hash of Items, then
// SampleSize, VAvg's bits, KStar, TotalWords, TotalSends and MaxClock's bits.
func aggDigest(r Result, s comm.Stats) string {
	h := fnv.New64a()
	for _, it := range r.Items {
		fmt.Fprintf(h, "%x:%x;", it.Key, math.Float64bits(it.Sum))
	}
	return fmt.Sprintf("%016x/%d/%016x/%d/%d/%d/%016x", h.Sum64(), r.SampleSize,
		math.Float64bits(r.VAvg), r.KStar, s.TotalWords, s.TotalSends, math.Float64bits(s.MaxClock))
}

// runAggGolden runs PAC (exact=false) or ECSum on a fresh p-PE machine and
// returns the digest of the (PE-identical) result and the machine's meters.
func runAggGolden(t *testing.T, shape string, p int, exact bool) string {
	t.Helper()
	params := Params{K: 8, Eps: 0.02, Delta: 0.01}
	res := make([]Result, p)
	mach := comm.NewMachine(comm.DefaultConfig(p))
	defer mach.Close()
	mach.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		keys, vals := goldenInput(shape, r, 3000)
		rng := xrand.NewPE(67, r)
		if exact {
			res[r] = ECSum(pe, keys, vals, params, rng)
		} else {
			res[r] = PAC(pe, keys, vals, params, rng)
		}
	})
	for r := 1; r < p; r++ {
		if !reflect.DeepEqual(res[r], res[0]) {
			t.Fatalf("%s p=%d: PE %d result differs from PE 0", shape, p, r)
		}
	}
	return aggDigest(res[0], mach.Stats())
}

// TestAggGoldenDigests pins PAC and ECSum — items, sample size, v_avg,
// k*, words, sends and modeled clock — on fixed inputs. The digests were
// recorded before local aggregation became a radix sort: any change to the
// per-key sums, their summation order or the order in which keys consume
// Bernoulli draws shows up here.
func TestAggGoldenDigests(t *testing.T) {
	want := map[string]string{
		"zipf/p1/pac":      "e3e0be8f16958645/269/40278266308f0efb/0/0/0/0000000000000000",
		"zipf/p1/ecsum":    "eafca2440e3dc7fb/91/40409fa69f7ad489/8/0/0/0000000000000000",
		"zipf/p4/pac":      "2e0bee003e7e7fdb/562/403656d757bf4ab4/0/1137/92/40e839e000000000",
		"zipf/p4/ecsum":    "79a37170d729e7bd/47/407324cccbad4d90/188/650/64/40df920000000000",
		"wide/p1/pac":      "7af4ae568825b0a0/252/40278266308f0efb/0/0/0/0000000000000000",
		"wide/p1/ecsum":    "f3dd7058752ef7ec/85/40409fa69f7ad489/8/0/0/0000000000000000",
		"wide/p4/pac":      "9164563ff54df183/553/403656d757bf4ab4/0/1105/94/40e838e000000000",
		"wide/p4/ecsum":    "94ebec497b849cdc/46/407324cccbad4d90/188/636/64/40df940000000000",
		"equal/p1/pac":     "f08aadabe2a3a690/258/40278266308f0efb/0/0/0/0000000000000000",
		"equal/p1/ecsum":   "78d43d2f8d20c700/91/40409fa69f7ad489/8/0/0/0000000000000000",
		"equal/p4/pac":     "cd07a158d60d94d4/541/403656d757bf4ab4/0/56/48/40d7778000000000",
		"equal/p4/ecsum":   "ac40568344d08b74/40/407324cccbad4d90/188/64/56/40db608000000000",
		"topbyte/p1/pac":   "662bf266a49fdd8b/253/40278266308f0efb/0/0/0/0000000000000000",
		"topbyte/p1/ecsum": "f5cbbd779adea416/87/40409fa69f7ad489/8/0/0/0000000000000000",
		"topbyte/p4/pac":   "05dbc481f8c7f88f/564/403656d757bf4ab4/0/1037/92/40e8354000000000",
		"topbyte/p4/ecsum": "8cd90414cffc56d2/36/407324cccbad4d90/188/506/64/40df830000000000",
		"empty/p1/pac":     "cbf29ce484222325/0/0000000000000000/0/0/0/0000000000000000",
		"empty/p1/ecsum":   "cbf29ce484222325/0/0000000000000000/0/0/0/0000000000000000",
		"empty/p4/pac":     "9912aae77f8b48c7/552/4030e99749d7fcd1/0/1072/92/40e83d0000000000",
		"empty/p4/ecsum":   "3e14f214e7bf7b39/41/406cd4f7f250bf75/186/566/64/40df8b0000000000",
	}
	for _, shape := range []string{"zipf", "wide", "equal", "topbyte", "empty"} {
		for _, p := range []int{1, 4} {
			for _, exact := range []bool{false, true} {
				name := fmt.Sprintf("%s/p%d/%s", shape, p, map[bool]string{false: "pac", true: "ecsum"}[exact])
				got := runAggGolden(t, shape, p, exact)
				if got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// TestAggRepeatedRunsBitIdentical: repeated PAC/ECSum runs over identical
// inputs are bit-identical in results and meters.
func TestAggRepeatedRunsBitIdentical(t *testing.T) {
	for _, exact := range []bool{false, true} {
		ref := runAggGolden(t, "zipf", 5, exact)
		for rep := 0; rep < 3; rep++ {
			if got := runAggGolden(t, "zipf", 5, exact); got != ref {
				t.Fatalf("exact=%v rep %d: digest %s, want %s", exact, rep, got, ref)
			}
		}
	}
}
