package comm

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// ringExchange is a one-round ring shift: every PE sends val(rank) to
// its right neighbour under tag and checks what its left neighbour sent.
// A stale message left over from an aborted run would surface as a tag
// mismatch or a wrong payload.
func ringExchange(t *testing.T, tag Tag, val func(rank int) int) func(pe *PE) {
	return func(pe *PE) {
		p, r := pe.P(), pe.Rank()
		left := (r - 1 + p) % p
		if rx, _ := pe.SendRecv((r+1)%p, val(r), 1, left, tag); rx.(int) != val(left) {
			t.Errorf("rank %d: got %v from %d, want %d", r, rx, left, val(left))
		}
	}
}

// TestMatrixBlockedSendUnwindsOnAbort pins the matrix's send-side abort:
// a sender blocked on a full per-pair channel (the receiver never
// drains it) is released when another PE panics, its body unwinds at
// the next receive, and the machine then runs a clean exchange over the
// very channel that was full.
func TestMatrixBlockedSendUnwindsOnAbort(t *testing.T) {
	m := NewMachine(MatrixConfig(3))
	defer m.Close()
	full := m.sinks[1].(*chanIntake).col[0]
	var sent int
	var finished bool
	err := m.Run(func(pe *PE) {
		switch pe.Rank() {
		case 0:
			for i := 0; i <= chanCap; i++ {
				pe.Send(1, 1, i, 1)
				sent++
			}
			pe.Recv(2, 1) // never sent: the abort unwinds here
			finished = true
		case 1:
			// Panic only once PE 0 has filled the channel and is blocked
			// on its chanCap+1-th send.
			for len(full) < chanCap {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond)
			panic("receiver died")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "receiver died") {
		t.Fatalf("Run error = %v, want the receiver's panic", err)
	}
	if sent != chanCap+1 || finished {
		t.Fatalf("sender: %d sends returned, finished=%v; want %d and an unwind at the receive", sent, finished, chanCap+1)
	}
	if n := len(full); n != 0 {
		t.Fatalf("%d stale messages left in the full channel after the failed run", n)
	}
	for run := 0; run < 2; run++ {
		if err := m.Run(ringExchange(t, 1, func(r int) int { return 100*run + r })); err != nil {
			t.Fatalf("exchange %d after the abort: %v", run, err)
		}
	}
}

// TestAbortExternalDuringAndBetweenRuns is the wire transport's teardown
// shape without processes: a foreign goroutine aborts the machine while
// runs start and finish. Each abort must fail exactly one run — the one
// in progress, or the next one if the run had already finished — and
// the run after that must be clean. Run under -race this also pins that
// the abort path shares no unsynchronized state with run completion.
func TestAbortExternalDuringAndBetweenRuns(t *testing.T) {
	errDown := errors.New("remote process died")
	w2 := MailboxConfig(8)
	w2.Workers = 2
	for name, cfg := range map[string]Config{"mailbox": MailboxConfig(8), "mailbox_w2": w2, "matrix": MatrixConfig(8)} {
		t.Run(name, func(t *testing.T) {
			m := NewMachine(cfg)
			defer m.Close()
			exchange := ringExchange(t, 3, func(r int) int { return r * r })
			// The continuation form suspends on its receive instead of
			// blocking, so an abort must reach it through the armed intake.
			asyncExchange := func(pe *PE) Stepper {
				p, r := pe.P(), pe.Rank()
				left := (r - 1 + p) % p
				h := pe.IRecv(left, 4)
				pe.Send((r+1)%p, 4, r+1, 1)
				return StepFunc(func(pe *PE) *RecvHandle {
					if !h.Test() {
						return h
					}
					if rx, _ := h.Wait(); rx.(int) != left+1 {
						t.Errorf("rank %d: got %v from %d, want %d", r, rx, left, left+1)
					}
					return nil
				})
			}
			run := func(i int) error {
				if i%2 == 0 {
					return m.Run(exchange)
				}
				return m.RunAsync(asyncExchange)
			}

			// During: every body waits for a message that never comes, so
			// only the external abort can end the run.
			go func() {
				time.Sleep(5 * time.Millisecond)
				m.AbortExternal(errDown)
			}()
			if err := m.Run(func(pe *PE) { pe.Recv((pe.Rank()+1)%pe.P(), 9) }); !errors.Is(err, errDown) {
				t.Fatalf("stalled run: %v, want %v", err, errDown)
			}
			if err := run(0); err != nil {
				t.Fatalf("run after the abort: %v", err)
			}

			// Between: the abort lands after the run finished, so the next
			// run fails and the one after is clean.
			m.AbortExternal(errDown)
			if err := run(1); !errors.Is(err, errDown) {
				t.Fatalf("run after an idle abort: %v, want %v", err, errDown)
			}
			if err := run(0); err != nil {
				t.Fatalf("second run after an idle abort: %v", err)
			}

			// Racing: the abort lands anywhere around a run's completion.
			for i := 0; i < 50; i++ {
				done := make(chan struct{})
				go func() {
					defer close(done)
					m.AbortExternal(errDown)
				}()
				err := run(i)
				<-done
				if err == nil {
					err = run(i + 1)
				}
				if !errors.Is(err, errDown) {
					t.Fatalf("iteration %d: abort lost (%v)", i, err)
				}
				if err := run(i); err != nil {
					t.Fatalf("iteration %d: run after the failed one: %v", i, err)
				}
			}
		})
	}
}
