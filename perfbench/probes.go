package main

import (
	"fmt"
	"time"

	"commtopk/internal/agg"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/qsel"
)

// runAcc times Runs the benchmark makes on a mailbox machine: the Run's
// wall time minus its longest PE body (comm.run_overhead_us), and the
// share of PE body time spent waiting (comm.wait_share).
type runAcc struct {
	overheadUs     []float64
	waitNs, spanNs int64
	spans, waits   []time.Duration
}

// run executes body on every PE of m and returns the Run's wall time.
// A nil accumulator just times the Run.
func (a *runAcc) run(m *comm.Machine, body func(pe *comm.PE)) (time.Duration, error) {
	if a == nil {
		t0 := time.Now()
		err := m.Run(body)
		return time.Since(t0), err
	}
	p := m.P()
	if len(a.spans) != p {
		a.spans, a.waits = make([]time.Duration, p), make([]time.Duration, p)
	}
	t0 := time.Now()
	err := m.Run(func(pe *comm.PE) {
		w0, s0 := pe.WaitTime(), time.Now()
		body(pe)
		a.spans[pe.Rank()] = time.Since(s0)
		a.waits[pe.Rank()] = pe.WaitTime() - w0
	})
	wall := time.Since(t0)
	var longest time.Duration
	for r := 0; r < p; r++ {
		longest = max(longest, a.spans[r])
		a.spanNs += int64(a.spans[r])
		a.waitNs += int64(a.waits[r])
	}
	a.overheadUs = append(a.overheadUs, float64(wall-longest)/1e3)
	return wall, err
}

func (a *runAcc) report(res *result) {
	res.layer["comm.run_overhead_us"] = median(a.overheadUs)
	res.layer["comm.wait_share"] = float64(a.waitNs) / float64(max(a.spanNs, 1))
}

// probeRuntime measures the collective and scheduler probes on a fresh
// mailbox machine of p PEs: one all-reduce, one all-to-all of one word
// per pair, and one empty Run, each as the median over repetitions.
// When acc is non-nil the probe Runs also feed it.
func probeRuntime(res *result, p int, acc *runAcc) error {
	m := comm.NewMachine(comm.MailboxConfig(p))
	defer m.Close()
	if acc == nil {
		acc = &runAcc{}
	}
	const reps, inner = 7, 10
	var ar, a2a, empty []float64
	parts := make([][][]uint64, p)
	for r := range parts {
		parts[r] = make([][]uint64, p)
		for d := range parts[r] {
			parts[r][d] = []uint64{uint64(r*p + d)}
		}
	}
	for i := 0; i < reps; i++ {
		wall, err := acc.run(m, func(pe *comm.PE) {
			for j := 0; j < inner; j++ {
				coll.SumAll(pe, int64(pe.Rank()))
			}
		})
		if err != nil {
			return fmt.Errorf("allreduce probe: %w", err)
		}
		ar = append(ar, float64(wall)/1e3/inner)
		wall, err = acc.run(m, func(pe *comm.PE) {
			for j := 0; j < inner; j++ {
				coll.AllToAll(pe, parts[pe.Rank()])
			}
		})
		if err != nil {
			return fmt.Errorf("alltoall probe: %w", err)
		}
		a2a = append(a2a, float64(wall)/1e3/inner)
		for j := 0; j < inner; j++ {
			t0 := time.Now()
			if err := m.Run(func(*comm.PE) {}); err != nil {
				return fmt.Errorf("empty run probe: %w", err)
			}
			empty = append(empty, float64(time.Since(t0))/1e3)
		}
	}
	res.layer["coll.allreduce_us"] = median(ar)
	res.layer["coll.alltoall_us"] = median(a2a)
	res.layer["mailbox.empty_run_us"] = median(empty)
	return nil
}

// probeKernels times the local kernels standalone on each PE's own
// input: qsel.SelectInto (median rank) over sel, agg.LocalAggregate over
// keys/values. Medians over three passes, in ns per element.
func probeKernels(res *result, sel [][]uint64, keys [][]uint64, values [][]float64) {
	var qs, ds []float64
	for pass := 0; pass < 3; pass++ {
		var qt, dt time.Duration
		var qn, dn int
		for _, s := range sel {
			dst := make([]uint64, len(s))
			t0 := time.Now()
			qsel.SelectInto(dst, s, len(s)/2)
			qt += time.Since(t0)
			qn += len(s)
		}
		for i := range keys {
			t0 := time.Now()
			tab := agg.LocalAggregate(keys[i], values[i])
			dt += time.Since(t0)
			tab.Release()
			dn += len(keys[i])
		}
		qs = append(qs, float64(qt)/float64(max(qn, 1)))
		ds = append(ds, float64(dt)/float64(max(dn, 1)))
	}
	res.layer["qsel.ns_per_elem"] = median(qs)
	res.layer["dht.ns_per_key"] = median(ds)
}
