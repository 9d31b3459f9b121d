package sel

import (
	"fmt"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// msTestSeq builds a locally sorted, globally unique input: PE r holds
// the keys {i·p + r}, i < perPE — strided so every PE owns a share of
// every value band.
func msTestSeq(p, r, perPE int) SliceSeq[uint64] {
	s := make([]uint64, perPE)
	for i := range s {
		s[i] = uint64(i*p + r)
	}
	return s
}

// MSSelectStep and AMSSelectStep must be bit-identical to the blocking
// forms — per-PE results and metered statistics — whether driven by
// RunAsync on the mailbox scheduler (including w < p) or by the channel
// matrix's blocking drive.
func TestMSSelectStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 64
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			n := int64(p * perPE)
			for _, k := range []int64{1, n / 3, n / 2, n} {
				mc := newMachine(t, comm.MatrixConfig(p))
				refV := make([]uint64, p)
				refN := make([]int, p)
				mc.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					refV[r], refN[r] = MSSelect[uint64](pe, msTestSeq(p, r, perPE), k, xrand.New(33))
				})
				refStats := mc.Stats()
				if refV[0] != uint64(k-1) {
					t.Fatalf("k=%d: blocking MSSelect = %d, want %d", k, refV[0], k-1)
				}
				for _, w := range []int{0, 1, 4} {
					cfg := comm.MailboxConfig(p)
					cfg.Workers = w
					m := newMachine(t, cfg)
					gotV := make([]uint64, p)
					gotN := make([]int, p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return MSSelectStep[uint64](pe, msTestSeq(p, r, perPE), k, xrand.New(33),
							func(v uint64, le int) { gotV[r], gotN[r] = v, le })
					})
					for r := 0; r < p; r++ {
						if gotV[r] != refV[r] || gotN[r] != refN[r] {
							t.Errorf("k=%d w=%d rank %d: stepper (%d, %d) vs blocking (%d, %d)",
								k, w, r, gotV[r], gotN[r], refV[r], refN[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("k=%d w=%d: stats diverge:\n  blocking matrix: %+v\n  stepper mailbox: %+v",
							k, w, refStats, s)
					}
					m.Close()
				}
			}
		})
	}
}

func TestAMSSelectStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 64
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			n := int64(p * perPE)
			for _, kr := range [][2]int64{{1, 1}, {n / 4, n / 2}, {n, n}} {
				kmin, kmax := kr[0], kr[1]
				mc := newMachine(t, comm.MatrixConfig(p))
				ref := make([]AMSResult[uint64], p)
				mc.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					ref[r] = AMSSelect[uint64](pe, msTestSeq(p, r, perPE), kmin, kmax, xrand.NewPE(71, r))
				})
				refStats := mc.Stats()
				if ref[0].Count < kmin || ref[0].Count > kmax {
					t.Fatalf("[%d,%d]: blocking Count %d outside range", kmin, kmax, ref[0].Count)
				}
				for _, w := range []int{0, 1, 4} {
					cfg := comm.MailboxConfig(p)
					cfg.Workers = w
					m := newMachine(t, cfg)
					got := make([]AMSResult[uint64], p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return AMSSelectStep[uint64](pe, msTestSeq(p, r, perPE), kmin, kmax, xrand.NewPE(71, r),
							func(res AMSResult[uint64]) { got[r] = res })
					})
					for r := 0; r < p; r++ {
						if got[r] != ref[r] {
							t.Errorf("[%d,%d] w=%d rank %d: stepper %+v vs blocking %+v",
								kmin, kmax, w, r, got[r], ref[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("[%d,%d] w=%d: stats diverge:\n  blocking matrix: %+v\n  stepper mailbox: %+v",
							kmin, kmax, w, refStats, s)
					}
					m.Close()
				}
			}
		})
	}
}

// The degenerate interval [k, k] with k mid-range forces estimation
// failures and, with high probability across these ks, exercises the
// exact-fallback phase; stepper and blocking must still agree bit for bit.
func TestAMSSelectStepTightIntervalFallback(t *testing.T) {
	const p, perPE = 8, 64
	n := int64(p * perPE)
	for _, k := range []int64{7, n / 3, n - 5} {
		mc := newMachine(t, comm.MatrixConfig(p))
		ref := make([]AMSResult[uint64], p)
		mc.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			ref[r] = AMSSelect[uint64](pe, msTestSeq(p, r, perPE), k, k, xrand.NewPE(5, r))
		})
		refStats := mc.Stats()
		if ref[0].Count != k {
			t.Fatalf("k=%d: exact-interval Count = %d", k, ref[0].Count)
		}
		m := newMachine(t, comm.MailboxConfig(p))
		got := make([]AMSResult[uint64], p)
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			r := pe.Rank()
			return AMSSelectStep[uint64](pe, msTestSeq(p, r, perPE), k, k, xrand.NewPE(5, r),
				func(res AMSResult[uint64]) { got[r] = res })
		})
		for r := 0; r < p; r++ {
			if got[r] != ref[r] {
				t.Errorf("k=%d rank %d: stepper %+v vs blocking %+v", k, r, got[r], ref[r])
			}
		}
		if s := m.Stats(); s != refStats {
			t.Errorf("k=%d: stats diverge", k)
		}
		m.Close()
	}
}
