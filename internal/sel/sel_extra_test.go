package sel

import (
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

func TestAMSSelectBatchedValidation(t *testing.T) {
	m := newMachine(t, comm.DefaultConfig(1))
	err := m.Run(func(pe *comm.PE) {
		AMSSelectBatched[uint64](pe, SliceSeq[uint64]([]uint64{1}), 1, 1, 0, xrand.New(1))
	})
	if err == nil {
		t.Error("d=0 should panic")
	}
}

func TestAMSSelectInvalidRanges(t *testing.T) {
	for _, c := range []struct{ kmin, kmax int64 }{{0, 5}, {5, 3}, {100, 200}} {
		m := newMachine(t, comm.DefaultConfig(2))
		err := m.Run(func(pe *comm.PE) {
			var local []uint64
			if pe.Rank() == 0 {
				local = []uint64{1, 2, 3}
			}
			AMSSelect[uint64](pe, SliceSeq[uint64](local), c.kmin, c.kmax, xrand.NewPE(1, pe.Rank()))
		})
		if err == nil {
			t.Errorf("range [%d,%d] on 3 elements should panic", c.kmin, c.kmax)
		}
	}
}

func TestAMSSelectKmin1(t *testing.T) {
	// kmin=1 uses rho=1 (the global minimum always qualifies).
	const p = 3
	parts, sorted := sortedParts(xrand.New(71), 60, p)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		res := AMSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), 1, 20, xrand.NewPE(2, pe.Rank()))
		if res.Count < 1 || res.Count > 20 {
			t.Errorf("count %d", res.Count)
		}
		if res.Threshold != sorted[res.Count-1] {
			t.Errorf("threshold mismatch")
		}
	})
}

func TestAMSSelectAllElements(t *testing.T) {
	// kmax == n: everything is selected, threshold = global max.
	const p = 4
	parts, sorted := sortedParts(xrand.New(73), 100, p)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		res := AMSSelect[uint64](pe, SliceSeq[uint64](parts[pe.Rank()]), 100, 100, xrand.NewPE(3, pe.Rank()))
		if res.Count != 100 {
			t.Errorf("count %d", res.Count)
		}
		if res.Threshold != sorted[99] {
			t.Errorf("threshold %d, want global max %d", res.Threshold, sorted[99])
		}
		if res.LocalLen != len(parts[pe.Rank()]) {
			t.Errorf("LocalLen %d, want whole slice", res.LocalLen)
		}
	})
}

func TestMSSelectSkewedOwnership(t *testing.T) {
	// All data on the last PE; the shared-pivot machinery must still work.
	const p = 5
	global, sorted := globalSorted(xrand.New(79), 200)
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		var local []uint64
		if pe.Rank() == p-1 {
			local = slices.Clone(global)
			slices.Sort(local)
		}
		shared := xrand.New(83)
		v, _ := MSSelect[uint64](pe, SliceSeq[uint64](local), 100, shared)
		if v != sorted[99] {
			t.Errorf("MSSelect = %d, want %d", v, sorted[99])
		}
	})
}

func TestKthWithHugeDuplicateGroups(t *testing.T) {
	// 90% of the input is one value: exercises the tie-peeling path.
	const p = 4
	global := make([]uint64, 4000)
	rng := xrand.New(89)
	for i := range global {
		if i%10 == 0 {
			global[i] = uint64(rng.Intn(1000))
		} else {
			global[i] = 500000
		}
	}
	sorted := slices.Clone(global)
	slices.Sort(sorted)
	parts := distribute(global, p)
	for _, k := range []int64{1, 400, 2000, 3999} {
		m := newMachine(t, comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			got := Kth(pe, parts[pe.Rank()], k, xrand.NewPE(97, pe.Rank()))
			if got != sorted[k-1] {
				t.Errorf("k=%d: got %d want %d", k, got, sorted[k-1])
			}
		})
	}
}

func TestKthTiesAreCommunicationCheap(t *testing.T) {
	// The tie-peeling must not gather the tie group.
	const p = 4
	const perPE = 50000
	locals := make([][]uint64, p)
	for r := range locals {
		locals[r] = make([]uint64, perPE)
		for i := range locals[r] {
			locals[r][i] = 7 // all identical
		}
	}
	m := newMachine(t, comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		if got := Kth(pe, locals[pe.Rank()], int64(p*perPE/2), xrand.NewPE(1, pe.Rank())); got != 7 {
			t.Errorf("Kth of constant input = %d", got)
		}
	})
	if w := m.Stats().BottleneckWords(); w > 2000 {
		t.Errorf("constant input moved %d words", w)
	}
}

func TestSubSeqWindow(t *testing.T) {
	s := SliceSeq[uint64]([]uint64{10, 20, 30, 40, 50, 60})
	w := subSeq[uint64]{s: s, lo: 2, hi: 5} // {30, 40, 50}
	if w.Len() != 3 || w.At(0) != 30 || w.At(2) != 50 {
		t.Error("subSeq accessors wrong")
	}
	if w.CountLess(40) != 1 || w.CountLE(40) != 2 {
		t.Error("subSeq counts wrong")
	}
	if w.CountLess(5) != 0 || w.CountLE(100) != 3 {
		t.Error("subSeq clamping wrong")
	}
}
