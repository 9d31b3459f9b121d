package sel

import (
	"slices"
	"testing"
	"testing/quick"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

var peCounts = []int{1, 2, 3, 4, 7, 8, 13}

// distribute splits global among p PEs deterministically but unevenly:
// PE i receives a share that grows with i, exercising skewed inputs.
func distribute(global []uint64, p int) [][]uint64 {
	parts := make([][]uint64, p)
	// Weights 1, 2, ..., p (PE p-1 has p times the data of PE 0).
	total := p * (p + 1) / 2
	start := 0
	for i := 0; i < p; i++ {
		share := len(global) * (i + 1) / total
		end := start + share
		if i == p-1 {
			end = len(global)
		}
		if end > len(global) {
			end = len(global)
		}
		parts[i] = global[start:end]
		start = end
	}
	return parts
}

func globalSorted(rng *xrand.RNG, n int) ([]uint64, []uint64) {
	global := make([]uint64, n)
	seen := map[uint64]bool{}
	for i := range global {
		for {
			v := rng.Uint64() % uint64(8*n)
			if !seen[v] {
				seen[v] = true
				global[i] = v
				break
			}
		}
	}
	sorted := slices.Clone(global)
	slices.Sort(sorted)
	return global, sorted
}

func TestKthMatchesSortOnUniqueInput(t *testing.T) {
	rng := xrand.New(101)
	global, sorted := globalSorted(rng, 3000)
	for _, p := range peCounts {
		parts := distribute(global, p)
		for _, k := range []int64{1, 2, 100, 1500, 2999, 3000} {
			m := newMachine(t, comm.DefaultConfig(p))
			if err := m.Run(func(pe *comm.PE) {
				got := Kth(pe, parts[pe.Rank()], k, xrand.NewPE(5, pe.Rank()))
				if want := sorted[k-1]; got != want {
					t.Errorf("p=%d k=%d: Kth=%d want %d", p, k, got, want)
				}
			}); err != nil {
				t.Fatalf("p=%d k=%d: %v", p, k, err)
			}
		}
	}
}

func TestKthWithDuplicates(t *testing.T) {
	// Heavy duplication: only 5 distinct values.
	global := make([]uint64, 1000)
	rng := xrand.New(7)
	for i := range global {
		global[i] = uint64(rng.Intn(5) * 10)
	}
	sorted := slices.Clone(global)
	slices.Sort(sorted)
	for _, p := range []int{1, 4, 7} {
		parts := distribute(global, p)
		for _, k := range []int64{1, 250, 500, 999} {
			m := newMachine(t, comm.DefaultConfig(p))
			m.MustRun(func(pe *comm.PE) {
				got := Kth(pe, parts[pe.Rank()], k, xrand.NewPE(3, pe.Rank()))
				if want := sorted[k-1]; got != want {
					t.Errorf("p=%d k=%d: Kth=%d want %d", p, k, got, want)
				}
			})
		}
	}
}

func TestKthOutOfRangePanics(t *testing.T) {
	m := newMachine(t, comm.DefaultConfig(2))
	err := m.Run(func(pe *comm.PE) {
		Kth(pe, []uint64{1, 2}, 5, xrand.NewPE(1, pe.Rank()))
	})
	if err == nil {
		t.Fatal("expected out-of-range panic")
	}
}

func TestKthAllOnOnePE(t *testing.T) {
	// Total skew: all data on PE 0 (the case that breaks the old random-
	// distribution assumption; Theorem 1's point is this still works).
	global, sorted := globalSorted(xrand.New(11), 500)
	const p = 8
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		var local []uint64
		if pe.Rank() == 0 {
			local = global
		}
		got := Kth(pe, local, 250, xrand.NewPE(9, pe.Rank()))
		if want := sorted[249]; got != want {
			t.Errorf("Kth=%d want %d", got, want)
		}
	})
}

func TestSmallestK(t *testing.T) {
	global, sorted := globalSorted(xrand.New(13), 2000)
	for _, p := range []int{1, 3, 8} {
		parts := distribute(global, p)
		for _, k := range []int64{0, 1, 7, 512, 2000} {
			m := newMachine(t, comm.DefaultConfig(p))
			collected := make([][]uint64, p)
			m.MustRun(func(pe *comm.PE) {
				collected[pe.Rank()] = SmallestK(pe, parts[pe.Rank()], k, xrand.NewPE(17, pe.Rank()))
			})
			var all []uint64
			for _, c := range collected {
				all = append(all, c...)
			}
			slices.Sort(all)
			if int64(len(all)) != k {
				t.Fatalf("p=%d k=%d: got %d elements", p, k, len(all))
			}
			if !slices.Equal(all, sorted[:k]) {
				t.Errorf("p=%d k=%d: wrong element set", p, k)
			}
		}
	}
}

func TestSmallestKSplitsTies(t *testing.T) {
	// All elements identical: exactly k copies must be returned.
	const p = 4
	m := newMachine(t, comm.DefaultConfig(p))
	counts := make([]int, p)
	m.MustRun(func(pe *comm.PE) {
		local := []uint64{7, 7, 7, 7, 7}
		got := SmallestK(pe, local, 11, xrand.NewPE(19, pe.Rank()))
		counts[pe.Rank()] = len(got)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 11 {
		t.Errorf("tie-splitting returned %d elements, want 11", total)
	}
}

func TestKthRandomizedBaseline(t *testing.T) {
	global, sorted := globalSorted(xrand.New(23), 800)
	const p = 4
	parts := distribute(global, p)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		got := KthRandomized(pe, parts[pe.Rank()], 400, xrand.NewPE(29, pe.Rank()))
		if want := sorted[399]; got != want {
			t.Errorf("KthRandomized=%d want %d", got, want)
		}
	})
	// The baseline must move Θ(n/p) words; the new algorithm far less.
	words := m.Stats().MaxSentWords
	if words < int64(len(global))/p/2 {
		t.Errorf("baseline moved only %d words; expected at least n/p-ish", words)
	}
}

func TestKthCommunicationSublinear(t *testing.T) {
	// Theorem 1: communication volume per PE must be far below n/p once
	// n/p is large. n/p = 20000, p = 8.
	const p = 8
	const perPE = 20000
	m := newMachine(t, comm.DefaultConfig(p))
	locals := make([][]uint64, p)
	rng := xrand.New(31)
	for i := range locals {
		locals[i] = make([]uint64, perPE)
		for j := range locals[i] {
			locals[i][j] = rng.Uint64()
		}
	}
	m.MustRun(func(pe *comm.PE) {
		Kth(pe, locals[pe.Rank()], int64(p*perPE/2), xrand.NewPE(37, pe.Rank()))
	})
	words := m.Stats().MaxSentWords
	if words > perPE/8 {
		t.Errorf("selection moved %d words per PE on n/p=%d input; not sublinear", words, perPE)
	}
}

func sortedParts(rng *xrand.RNG, n, p int) ([][]uint64, []uint64) {
	global, sorted := globalSorted(rng, n)
	parts := distribute(global, p)
	sp := make([][]uint64, p)
	for i := range parts {
		sp[i] = slices.Clone(parts[i])
		slices.Sort(sp[i])
	}
	return sp, sorted
}

func TestMSSelect(t *testing.T) {
	rng := xrand.New(41)
	for _, p := range peCounts {
		parts, sorted := sortedParts(rng, 1200, p)
		for _, k := range []int64{1, 2, 600, 1199, 1200} {
			m := newMachine(t, comm.DefaultConfig(p))
			gotLens := make([]int, p)
			m.MustRun(func(pe *comm.PE) {
				shared := xrand.New(57) // same seed on every PE
				v, localLE := MSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), k, shared)
				if want := sorted[k-1]; v != want {
					t.Errorf("p=%d k=%d: MSSelect=%d want %d", p, k, v, want)
				}
				gotLens[pe.Rank()] = localLE
			})
			var total int64
			for _, l := range gotLens {
				total += int64(l)
			}
			if total != k {
				t.Errorf("p=%d k=%d: local prefix lengths sum to %d", p, k, total)
			}
		}
	}
}

func TestMSSelectStartupsPolylog(t *testing.T) {
	// Theorem 16: O(α log² kp). With p=16, n=16k, expect a few hundred
	// startups at most, not Ω(n).
	const p = 16
	parts, _ := sortedParts(xrand.New(43), 16000, p)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		shared := xrand.New(3)
		MSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), 8000, shared)
	})
	if s := m.Stats(); s.MaxSends > 2000 {
		t.Errorf("MSSelect used %d startups; expected polylog", s.MaxSends)
	}
}

func TestAMSSelect(t *testing.T) {
	rng := xrand.New(47)
	for _, p := range peCounts {
		parts, sorted := sortedParts(rng, 1500, p)
		cases := []struct{ kmin, kmax int64 }{
			{1, 10}, {50, 100}, {700, 900}, {1400, 1500}, {1500, 1500},
		}
		for _, c := range cases {
			m := newMachine(t, comm.DefaultConfig(p))
			lens := make([]int, p)
			var count int64
			var thr uint64
			m.MustRun(func(pe *comm.PE) {
				res := AMSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), c.kmin, c.kmax, xrand.NewPE(53, pe.Rank()))
				lens[pe.Rank()] = res.LocalLen
				if pe.Rank() == 0 {
					count, thr = res.Count, res.Threshold
				}
			})
			if count < c.kmin || count > c.kmax {
				t.Errorf("p=%d [%d,%d]: count %d outside range", p, c.kmin, c.kmax, count)
			}
			var total int64
			for _, l := range lens {
				total += int64(l)
			}
			if total != count {
				t.Errorf("p=%d [%d,%d]: local lens sum %d != count %d", p, c.kmin, c.kmax, total, count)
			}
			// The threshold must be the count-th smallest global element.
			if thr != sorted[count-1] {
				t.Errorf("p=%d [%d,%d]: threshold %d is not the %d-th smallest %d",
					p, c.kmin, c.kmax, thr, count, sorted[count-1])
			}
		}
	}
}

func TestAMSSelectTightRange(t *testing.T) {
	// kmin == kmax forces either a lucky estimate or the exact fallback;
	// both must return exactly k elements.
	const p = 5
	parts, sorted := sortedParts(xrand.New(59), 700, p)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		res := AMSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), 350, 350, xrand.NewPE(61, pe.Rank()))
		if res.Count != 350 {
			t.Errorf("tight range returned %d", res.Count)
		}
		if res.Threshold != sorted[349] {
			t.Errorf("threshold %d want %d", res.Threshold, sorted[349])
		}
	})
}

func TestAMSSelectBatched(t *testing.T) {
	for _, d := range []int{1, 4, 16} {
		const p = 6
		parts, _ := sortedParts(xrand.New(67), 1000, p)
		m := newMachine(t, comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			res := AMSSelectBatched[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), 400, 440, d, xrand.NewPE(71, pe.Rank()))
			if res.Count < 400 || res.Count > 440 {
				t.Errorf("d=%d: count %d outside [400,440]", d, res.Count)
			}
		})
	}
}

func TestAMSSelectBatchedFewerRounds(t *testing.T) {
	// Theorem 4: more concurrent trials should not increase the expected
	// round count; with a narrow range, d=16 should converge in fewer
	// rounds than d=1 on average.
	const p = 4
	parts, _ := sortedParts(xrand.New(73), 4000, p)
	avgRounds := func(d int) float64 {
		var total int
		const reps = 20
		for rep := 0; rep < reps; rep++ {
			m := newMachine(t, comm.DefaultConfig(p))
			m.MustRun(func(pe *comm.PE) {
				res := AMSSelectBatched[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]),
					2000, 2010, d, xrand.NewPE(int64(100+rep), pe.Rank()))
				if pe.Rank() == 0 {
					total += res.Rounds
				}
			})
		}
		return float64(total) / reps
	}
	r1, r16 := avgRounds(1), avgRounds(16)
	if r16 > r1 {
		t.Errorf("batched trials used more rounds (d=1: %.1f, d=16: %.1f)", r1, r16)
	}
}

func TestAMSSelectQuick(t *testing.T) {
	// Property: for random inputs and ranges, Count ∈ [kmin,kmax] and the
	// threshold is consistent with Count.
	check := func(seed int64, rawN uint16, rawK uint16) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(rawN%2000) + 20
		p := int(seed%4) + 2
		kmin := int64(rawK%uint16(n)) + 1
		span := kmin / 4
		kmax := kmin + span
		if kmax > int64(n) {
			kmax = int64(n)
		}
		parts, sorted := sortedParts(xrand.New(seed), n, p)
		ok := true
		m := newMachine(t, comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			res := AMSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), kmin, kmax, xrand.NewPE(seed+1, pe.Rank()))
			if pe.Rank() != 0 {
				return
			}
			if res.Count < kmin || res.Count > kmax {
				ok = false
			}
			if res.Threshold != sorted[res.Count-1] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKthOnPaperWorkload(t *testing.T) {
	// Section 10.1 workload: randomized per-PE Zipf tails.
	const p = 8
	const perPE = 5000
	locals := make([][]uint64, p)
	var global []uint64
	for i := 0; i < p; i++ {
		locals[i] = gen.SelectionInput(xrand.NewPE(79, i), perPE, 14)
		global = append(global, locals[i]...)
	}
	slices.Sort(global)
	k := int64(len(global) - 1024) // k-th largest ⇒ rank n-k+1 smallest
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		got := Kth(pe, locals[pe.Rank()], k, xrand.NewPE(83, pe.Rank()))
		if want := global[k-1]; got != want {
			t.Errorf("Zipf workload: Kth=%d want %d", got, want)
		}
	})
}

func TestSeqInterfaceAdapters(t *testing.T) {
	s := SliceSeq[uint64]([]uint64{2, 4, 6, 8})
	if s.Len() != 4 || s.At(2) != 6 {
		t.Error("SliceSeq basics wrong")
	}
	if s.CountLess(4) != 1 || s.CountLE(4) != 2 {
		t.Error("SliceSeq counts wrong")
	}
	if s.CountLess(1) != 0 || s.CountLE(9) != 4 {
		t.Error("SliceSeq boundary counts wrong")
	}
	var _ = coll.WordsOf[uint64] // keep coll import for the helper below
}
