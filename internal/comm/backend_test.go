package comm

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// The mailbox backend must be a drop-in replacement for the channel
// matrix: same Send/Recv semantics, same metering, same abort behavior.
// (Full cross-backend differential coverage over the collective suite
// lives in internal/experiments; these tests pin the substrate itself.)

func TestMailboxBasicSendRecv(t *testing.T) {
	m := NewMachine(MailboxConfig(2))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		const tag Tag = 7
		if pe.Rank() == 0 {
			pe.Send(1, tag, []int64{1, 2, 3}, 3)
		} else {
			data, words := pe.Recv(0, tag)
			got := data.([]int64)
			if words != 3 || len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v (%d words)", got, words)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxManyPEsAllExchange(t *testing.T) {
	// The dense-exchange stress of the channel matrix, on mailboxes: every
	// PE sends to every other, interleaving all senders in each intake.
	const p = 16
	m := NewMachine(MailboxConfig(p))
	defer m.Close()
	m.MustRun(func(pe *PE) {
		const tag Tag = 11
		for i := 1; i < p; i++ {
			dst := (pe.Rank() + i) % p
			pe.Send(dst, tag, pe.Rank(), 1)
		}
		sum := 0
		for i := 1; i < p; i++ {
			src := (pe.Rank() - i + p) % p
			rx, _ := pe.Recv(src, tag)
			sum += rx.(int)
		}
		want := p*(p-1)/2 - pe.Rank()
		if sum != want {
			t.Errorf("PE %d: sum=%d want %d", pe.Rank(), sum, want)
		}
	})
}

func TestMailboxPerSenderFIFOUnderReordering(t *testing.T) {
	// Receive sources in the opposite order they become ready: messages
	// from the not-yet-wanted sender must stash without disturbing the
	// per-sender order.
	m := NewMachine(MailboxConfig(3))
	defer m.Close()
	m.MustRun(func(pe *PE) {
		const tag Tag = 5
		switch pe.Rank() {
		case 0:
			for i := 0; i < 4; i++ {
				pe.Send(2, tag, 100+i, 1)
			}
		case 1:
			for i := 0; i < 4; i++ {
				pe.Send(2, tag, 200+i, 1)
			}
		case 2:
			// Drain sender 1 first, then sender 0.
			for i := 0; i < 4; i++ {
				rx, _ := pe.Recv(1, tag)
				if rx.(int) != 200+i {
					t.Errorf("from 1 step %d: got %v", i, rx)
				}
			}
			for i := 0; i < 4; i++ {
				rx, _ := pe.Recv(0, tag)
				if rx.(int) != 100+i {
					t.Errorf("from 0 step %d: got %v", i, rx)
				}
			}
		}
	})
}

func TestMailboxRunPropagatesPanicAndReuses(t *testing.T) {
	m := NewMachine(MailboxConfig(4))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 2 {
			panic("boom")
		}
		// Other PEs block on a message that never comes; the box interrupt
		// must release them.
		pe.Recv((pe.Rank()+1)%4, 99)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
	// The machine (and its persistent workers) must be reusable after an
	// abort, with queues drained.
	if err := m.Run(func(pe *PE) {}); err != nil {
		t.Fatalf("machine not reusable after abort: %v", err)
	}
	m.MustRun(func(pe *PE) {
		const tag Tag = 3
		if pe.Rank() == 0 {
			pe.Send(1, tag, 42, 1)
		} else if pe.Rank() == 1 {
			if rx, _ := pe.Recv(0, tag); rx.(int) != 42 {
				t.Errorf("post-abort recv got %v", rx)
			}
		}
	})
}

func TestMailboxTagMismatchDetected(t *testing.T) {
	m := NewMachine(MailboxConfig(2))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 5, nil, 0)
		} else {
			pe.Recv(0, 6)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("expected tag mismatch error, got %v", err)
	}
}

// TestMailboxStatsMatchChannelMatrix pins the folded aggregate equal
// under both drivers (scheduler and goroutine-per-PE) on a deterministic
// exchange, including accumulation across Runs and ResetStats.
func TestMailboxStatsMatchChannelMatrix(t *testing.T) {
	body := func(pe *PE) {
		const tag Tag = 2
		next := (pe.Rank() + 1) % pe.P()
		prev := (pe.Rank() - 1 + pe.P()) % pe.P()
		pe.Send(next, tag, nil, int64(pe.Rank()+1))
		pe.Recv(prev, tag)
	}
	run := func(cfg Config) (first, second, reset Stats) {
		m := NewMachine(cfg)
		defer m.Close()
		m.MustRun(body)
		first = m.Stats()
		m.MustRun(body)
		second = m.Stats()
		m.ResetStats()
		reset = m.Stats()
		return
	}
	c1, c2, cr := run(MatrixConfig(8))
	b1, b2, br := run(MailboxConfig(8))
	if c1 != b1 || c2 != b2 || cr != br {
		t.Errorf("stats diverge between backends:\nchan:    %+v %+v %+v\nmailbox: %+v %+v %+v",
			c1, c2, cr, b1, b2, br)
	}
	if c2.TotalWords != 2*c1.TotalWords {
		t.Errorf("stats did not accumulate across runs: %+v then %+v", c1, c2)
	}
	if br != (Stats{}) {
		t.Errorf("ResetStats left %+v", br)
	}
}

func TestMailboxWaitTimeAccumulates(t *testing.T) {
	m := NewMachine(MailboxConfig(2))
	defer m.Close()
	var waited time.Duration
	m.MustRun(func(pe *PE) {
		const tag Tag = 9
		if pe.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			pe.Send(1, tag, nil, 1)
		} else {
			pe.Recv(0, tag)
			waited = pe.WaitTime()
		}
	})
	if waited < 5*time.Millisecond {
		t.Errorf("blocked receive recorded only %v of wait time", waited)
	}
}

func TestMailboxCloseIdempotent(t *testing.T) {
	m := NewMachine(MailboxConfig(4))
	m.MustRun(func(pe *PE) {})
	m.Close()
	m.Close() // second Close must be a no-op, not a double channel close
}

func TestMailboxWorkersReleasedOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewMachine(MailboxConfig(64))
	m.MustRun(func(pe *PE) {})
	m.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("worker goroutines not released: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestMailboxRunZeroAllocSteadyState is the AllocsPerRun guard of the
// persistent worker pool: after the first Run has started the workers, a
// Run dispatch itself must not allocate (the channel matrix pays ~2
// allocs per PE per Run for goroutine spawns — the floor PR 1 measured).
func TestMailboxRunZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewMachine(MailboxConfig(64))
	defer m.Close()
	body := func(pe *PE) {}
	m.MustRun(body) // spawn the worker pool outside the measurement
	allocs := testing.AllocsPerRun(50, func() {
		m.MustRun(body)
	})
	if allocs > 0.5 {
		t.Errorf("steady-state mailbox Run allocates %.1f times, want 0", allocs)
	}
}

// TestQueueBytesGrowth pins the tentpole memory claim: the mailbox
// backend's up-front queue memory is O(p) while the channel matrix is
// O(p²).
func TestQueueBytesGrowth(t *testing.T) {
	growth := func(cfg func(int) Config) float64 {
		return float64(QueueBytes(cfg(4096))) / float64(QueueBytes(cfg(256)))
	}
	// 16× more PEs: O(p) grows 16×, O(p²) grows 256×.
	if g := growth(MailboxConfig); g > 20 {
		t.Errorf("mailbox queue memory grew %.0f× for 16× PEs; want O(p)", g)
	}
	if g := growth(MatrixConfig); g < 200 {
		t.Errorf("channel-matrix queue estimate grew only %.0f× for 16× PEs; estimator wrong?", g)
	}
	// Absolute sanity: the matrix at p=4096 is beyond any reasonable
	// harness budget; the mailbox at the same p is trivial.
	if got := QueueBytes(MatrixConfig(4096)); got < 16<<30 {
		t.Errorf("channel-matrix estimate at p=4096 = %d B; expected tens of GB", got)
	}
	if got := QueueBytes(MailboxConfig(4096)); got > 16<<20 {
		t.Errorf("mailbox estimate at p=4096 = %d B; expected well under 16 MB", got)
	}
}

// TestDefaultConfigIsMailbox pins the PR 3 default flip: DefaultConfig
// selects the mailbox runtime, MatrixConfig the channel-matrix reference,
// and an explicitly constructed zero-Backend Config still means matrix.
func TestDefaultConfigIsMailbox(t *testing.T) {
	if b := DefaultConfig(4).Backend; b != BackendMailbox {
		t.Errorf("DefaultConfig backend = %v, want mailbox", b)
	}
	if b := MatrixConfig(4).Backend; b != BackendChannelMatrix {
		t.Errorf("MatrixConfig backend = %v, want chanmatrix", b)
	}
	if b := (Config{P: 4}).Backend; b != BackendChannelMatrix {
		t.Errorf("zero-value backend = %v, want chanmatrix", b)
	}
}

// TestMachineBytesGrowth pins the estimator the scaling budget guards
// against: O(p) for the mailbox runtime including scheduler state, O(p²)
// for the matrix, and never below QueueBytes.
func TestMachineBytesGrowth(t *testing.T) {
	growth := func(cfg func(int) Config) float64 {
		return float64(MachineBytes(cfg(4096))) / float64(MachineBytes(cfg(256)))
	}
	if g := growth(MailboxConfig); g > 20 {
		t.Errorf("mailbox machine estimate grew %.0f× for 16× PEs; want O(p)", g)
	}
	if g := growth(MatrixConfig); g < 100 {
		t.Errorf("matrix machine estimate grew only %.0f× for 16× PEs", g)
	}
	for _, cfg := range []Config{MailboxConfig(1024), MatrixConfig(64)} {
		if MachineBytes(cfg) < QueueBytes(cfg) {
			t.Errorf("%s: MachineBytes %d < QueueBytes %d", cfg.Backend, MachineBytes(cfg), QueueBytes(cfg))
		}
	}
	// The estimator must charge the scheduler: more workers, more bytes.
	wide, narrow := MailboxConfig(1024), MailboxConfig(1024)
	wide.Workers, narrow.Workers = 512, 4
	if MachineBytes(wide) <= MachineBytes(narrow) {
		t.Errorf("scheduler state not charged: w=512 → %d B, w=4 → %d B", MachineBytes(wide), MachineBytes(narrow))
	}
}

// TestSchedWorkersResolution pins the w = min(GOMAXPROCS·8, p) default
// and the clamping of explicit widths.
func TestSchedWorkersResolution(t *testing.T) {
	if w := SchedWorkers(MailboxConfig(1 << 20)); w != min(runtime.GOMAXPROCS(0)*8, 1<<20) {
		t.Errorf("auto w = %d", w)
	}
	if w := SchedWorkers(MailboxConfig(3)); w != 3 {
		t.Errorf("auto w at p=3 = %d, want 3", w)
	}
	cfg := MailboxConfig(64)
	cfg.Workers = 4
	if w := SchedWorkers(cfg); w != 4 {
		t.Errorf("explicit w = %d, want 4", w)
	}
	cfg.Workers = 1 << 20
	if w := SchedWorkers(cfg); w != 64 {
		t.Errorf("oversized w = %d, want clamp to 64", w)
	}
	if w := SchedWorkers(MatrixConfig(64)); w != 0 {
		t.Errorf("matrix w = %d, want 0", w)
	}
	m := NewMachine(MailboxConfig(16))
	defer m.Close()
	if m.Workers() != SchedWorkers(m.Config()) {
		t.Errorf("Machine.Workers = %d, want %d", m.Workers(), SchedWorkers(m.Config()))
	}
}

// TestMailboxSchedulerWLessThanP exercises the multiplexed regime — far
// fewer shards than PEs, every body blocking — at the substrate level.
func TestMailboxSchedulerWLessThanP(t *testing.T) {
	const p = 64
	cfg := MailboxConfig(p)
	cfg.Workers = 4
	m := NewMachine(cfg)
	defer m.Close()
	for round := 0; round < 3; round++ {
		m.MustRun(func(pe *PE) {
			const tag Tag = 21
			// Reverse-order ring: every PE waits on a successor that the
			// in-order shard queues have not started yet, forcing driver
			// hand-offs down the whole queue.
			next := (pe.Rank() + 1) % p
			prev := (pe.Rank() - 1 + p) % p
			pe.Send(prev, tag, pe.Rank()+round, 1)
			rx, _ := pe.Recv(next, tag)
			if rx.(int) != next+round {
				t.Errorf("PE %d: got %v", pe.Rank(), rx)
			}
		})
	}
}

// TestMailboxGoroutineCountResident is the tentpole residency guard: a
// resident p = 16384 machine — after runs in which thousands of PE
// bodies parked — keeps its goroutine count at O(w), not O(p).
func TestMailboxGoroutineCountResident(t *testing.T) {
	const p = 16384
	before := runtime.NumGoroutine()
	m := NewMachine(MailboxConfig(p))
	defer m.Close()
	w := m.Workers()
	if w >= p/4 {
		t.Skipf("GOMAXPROCS too large for a meaningful bound (w=%d, p=%d)", w, p)
	}
	// A shifted ring parks essentially every PE body at least once.
	m.MustRun(func(pe *PE) {
		const tag Tag = 33
		pe.Send((pe.Rank()+1)%p, tag, nil, 1)
		pe.Recv((pe.Rank()-1+p)%p, tag)
	})
	deadline := time.Now().Add(5 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		if after = runtime.NumGoroutine(); after <= before+w+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("resident goroutines %d (baseline %d) exceed w+O(1) with w=%d; scheduler residency broken", after, before, w)
}

// heapInUse forces a GC and returns live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestMailboxMachineMemoryMeasured verifies the O(p) claim on the real
// allocator, not just the estimate: constructing a mailbox machine with
// 4096 PEs must cost (far) less heap than a 64-PE channel matrix.
func TestMailboxMachineMemoryMeasured(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under -race")
	}
	measure := func(cfg Config) uint64 {
		before := heapInUse()
		m := NewMachine(cfg)
		after := heapInUse()
		m.Close() // also keeps m alive through the measurement
		if after < before {
			return 0
		}
		return after - before
	}
	chan64 := measure(MatrixConfig(64))
	box4096 := measure(MailboxConfig(4096))
	// chan64 ≈ 64²·(hchan + 64 slots) ≈ 13 MB; box4096 ≈ 4096 boxes < 2 MB.
	if box4096 >= chan64 {
		t.Errorf("mailbox machine at p=4096 uses %d B, channel matrix at p=64 uses %d B; mailbox should be far smaller",
			box4096, chan64)
	}
	if box4096 > 16<<20 {
		t.Errorf("mailbox machine at p=4096 uses %d B; want O(p) ≪ 16 MB", box4096)
	}
}
