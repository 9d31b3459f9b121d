package sel

import (
	"fmt"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// KthStep must be bit-identical to the blocking Kth — per-PE results and
// metered statistics — whether driven by RunAsync on the mailbox
// scheduler (including w < p, where mid-selection suspensions cross
// worker boundaries) or by the channel matrix's naive blocking drive.
func TestKthStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 256
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			locals := make([][]uint64, p)
			for r := 0; r < p; r++ {
				locals[r] = gen.SelectionInput(xrand.NewPE(41, r), perPE, 12)
			}
			n := int64(p * perPE)
			for _, k := range []int64{1, n / 3, n / 2, n} {
				k := k
				// Blocking reference on the channel matrix.
				mc := newMachine(t, comm.MatrixConfig(p))
				refRes := make([]uint64, p)
				mc.MustRun(func(pe *comm.PE) {
					refRes[pe.Rank()] = Kth(pe, locals[pe.Rank()], k, xrand.NewPE(97, pe.Rank()))
				})
				refStats := mc.Stats()
				for _, w := range []int{0, 1, 4} {
					cfg := comm.MailboxConfig(p)
					cfg.Workers = w
					m := newMachine(t, cfg)
					res := make([]uint64, p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(97, pe.Rank()),
							func(v uint64) { res[pe.Rank()] = v })
					})
					for r := 0; r < p; r++ {
						if res[r] != refRes[r] {
							t.Errorf("k=%d w=%d rank %d: KthStep %d vs blocking %d", k, w, r, res[r], refRes[r])
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

// TestKthStepRepeatedRunsReusePooledState exercises the resume-path
// reuse across many RunAsync cycles on one machine: the pooled kthStep
// (and every collective stepper underneath) is recycled per op, and
// stale state from a previous selection must never leak into the next.
func TestKthStepRepeatedRunsReusePooledState(t *testing.T) {
	const p, perPE, rounds = 8, 128, 10
	cfg := comm.MailboxConfig(p)
	cfg.Workers = 2
	m := newMachine(t, cfg)
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(5, r), perPE, 12)
	}
	n := int64(p * perPE)
	for round := 0; round < rounds; round++ {
		k := 1 + (n*int64(round))/int64(rounds)
		var want uint64
		m.MustRun(func(pe *comm.PE) {
			v := Kth(pe, locals[pe.Rank()], k, xrand.NewPE(int64(round), pe.Rank()))
			if pe.Rank() == 0 {
				want = v
			}
		})
		res := make([]uint64, p)
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(int64(round), pe.Rank()),
				func(v uint64) { res[pe.Rank()] = v })
		})
		for r := 0; r < p; r++ {
			if res[r] != want {
				t.Fatalf("round %d rank %d: got %d want %d", round, r, res[r], want)
			}
		}
	}
}

// TestKthStepAllocParity pins the pooling: steady-state continuation
// selection must not allocate more than the blocking form (whose own
// per-op allocations — gather materializations, broadcast boxing — are
// inherent to the protocol, not to continuation scheduling).
func TestKthStepAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, perPE = 8, 512
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(11, r), perPE, 12)
	}
	k := int64(p * perPE / 2)
	measure := func(run func(m *comm.Machine)) float64 {
		m := newMachine(t, comm.MailboxConfig(p))
		defer m.Close()
		for i := 0; i < 3; i++ {
			run(m)
		}
		return testing.AllocsPerRun(10, func() { run(m) })
	}
	blocking := measure(func(m *comm.Machine) {
		m.MustRun(func(pe *comm.PE) {
			Kth(pe, locals[pe.Rank()], k, xrand.NewPE(13, pe.Rank()))
		})
	})
	stepper := measure(func(m *comm.Machine) {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(13, pe.Rank()), nil)
		})
	})
	// Identical protocol, pooled state: the continuation form must sit
	// within noise of the blocking form (slack for pool refills).
	if stepper > blocking+float64(p)*2 {
		t.Errorf("continuation selection allocates %.1f/op vs blocking %.1f/op; stepper state pooling regressed",
			stepper, blocking)
	}
}
