package comm

import (
	"fmt"
	"runtime/debug"
	"time"

	"commtopk/internal/mailbox"
)

// Non-blocking receives: IRecv handles with Test/Wait/WaitAll, and
// continuation-scheduled PE bodies (Stepper, Machine.RunAsync). Sends
// need no handle: mailbox intake is unbounded, so Send never blocks
// there, and on the channel matrix Send blocks only while its channel to
// the destination is full.
//
// The paper's machine model assumes an MPI-like substrate where a PE can
// post a receive, keep computing, and synchronize later (MPI_Irecv /
// MPI_Wait). The blocking Recv forces the simulator to park a goroutine
// for every waiting PE body; at p = 131072 the transient park/hand-off
// churn dominates host time. The handle API decouples the three phases
// of a receive —
//
//	post (IRecv: no meter effect), bind (the message is matched to the
//	handle; whenever the transport delivers), fold (Wait: the meter —
//	virtual clock, word and receive counters — advances in program
//	order, exactly like a blocking Recv at that point)
//
// — so Recv is literally IRecv followed by Wait, every backend shares
// this layer (it talks only to the PE's intake), and the two forms are
// bit-identical in results and statistics (pinned by the differential
// suite).
//
// # Handle discipline
//
// Handles are per-PE (never shared across PEs) and pooled: Wait consumes
// and recycles the handle, after which it must not be touched. Multiple
// receives from the same source must be waited in posting order
// (per-sender FIFO is a transport guarantee; the oldest posted handle
// owns the next message). Test may be polled freely; it binds any
// already-delivered messages but never blocks and never folds the meter.
//
// # Continuation-scheduled bodies
//
// A Stepper is a resumable PE body: Step runs until the body either
// completes (returns nil) or cannot proceed before a pending handle is
// bound (returns that handle). Under Machine.RunAsync on the mailbox
// backend, a Step that returns an unbound handle suspends the body as
// data — the worker goroutine returns to the scheduler and keeps driving
// other PEs — and the message's arrival re-enqueues the body on the
// scheduler's ready queue. Mid-run goroutine residency is therefore
// exactly the scheduler width w, not O(parked bodies): the property the
// blocking runtime can only provide between runs. Steppers must suspend
// via Step rather than calling a blocking Wait/Recv (blocking inside a
// stepper still works, but parks a goroutine like any blocking body).
// On the channel-matrix backend RunAsync simply drives the stepper with
// blocking waits on one goroutine per PE — the naive differential
// reference, bit-identical in results and statistics.

// handle states.
const (
	hFree    = iota // on the freelist; not a posted receive
	hPending        // posted, no message bound yet
	hBound          // message bound, meter not folded yet
)

// RecvHandle is a posted non-blocking receive (IRecv). Complete it with
// Wait (or poll with Test); handles from the same source complete in
// posting order.
type RecvHandle struct {
	pe    *PE
	src   int
	ctx   uint32 // the PE's communication context at posting time
	tag   Tag
	state uint8
	msg   mailbox.Msg
	// prev/next link the PE's outstanding list while posted, and the
	// freelist (next only) while free.
	prev, next *RecvHandle
}

// IRecv posts a non-blocking receive for the next message from src with
// the given tag, in the PE's current communication context, and returns
// its handle. src may be ExternalSrc (= p) to receive injected messages
// (Machine.Post). Posting has no effect on the meter; the virtual clock
// and counters advance at Wait, in program order, exactly as a blocking
// Recv would at that point. Receives from one (source, context) stream
// must be waited in posting order.
func (pe *PE) IRecv(src int, tag Tag) *RecvHandle {
	if src < 0 || src > pe.p {
		panic(fmt.Sprintf("comm: PE %d: recv from invalid rank %d", pe.rank, src))
	}
	h := pe.getHandle()
	h.src, h.ctx, h.tag, h.state = src, pe.ctx, tag, hPending
	pe.outAppend(h)
	// Eager bind: if the message is already queued (and no older handle
	// for the stream is pending), binding now keeps Test O(1) and Wait
	// free of transport calls on the fast path.
	if h.prevPendingFor(src, h.ctx) == nil {
		if msg, ok := pe.in.TryTakeKey(mailbox.Key(src, h.ctx)); ok {
			pe.bindMsg(h, msg)
		}
	}
	return h
}

// Test reports whether the handle's message has been bound, binding any
// already-delivered messages from the source (in posting order) on the
// way. It never blocks and never advances the meter.
func (h *RecvHandle) Test() bool {
	switch h.state {
	case hBound:
		return true
	case hFree:
		panic("comm: Test on a completed or unposted RecvHandle")
	}
	pe := h.pe
	for {
		g := pe.oldestPendingFor(h.src, h.ctx)
		msg, ok := pe.in.TryTakeKey(mailbox.Key(h.src, h.ctx))
		if !ok {
			return false
		}
		pe.bindMsg(g, msg)
		if h.state == hBound {
			return true
		}
	}
}

// Wait completes the receive: it blocks until the message is bound (a
// body under RunAsync suspends via Step instead, so its Wait never
// blocks), folds the meter — clock, word and message counters, exactly
// like Recv — and returns the payload and its size in words. The handle
// is consumed and recycled; it must not be used afterwards.
func (h *RecvHandle) Wait() (any, int64) {
	pe := h.pe
	switch h.state {
	case hFree:
		panic("comm: Wait on a completed or unposted RecvHandle")
	case hPending:
		pe.fillUntil(h)
	}
	msg := h.msg
	// Single-ported receive: the transfer occupies this PE for α+βm,
	// starting no earlier than when the sender started transmitting and
	// no earlier than the PE's own clock (see Recv).
	cost := pe.alpha + pe.beta*float64(msg.Words)
	avail := msg.Depart - cost
	if avail < pe.clock {
		avail = pe.clock
	}
	pe.clock = avail + cost
	pe.recvWords += msg.Words
	pe.recvs++
	pe.outUnlink(h)
	pe.putHandle(h)
	return msg.Data, msg.Words
}

// WaitAll completes the handles in slice order (meter folds in that
// order), discarding payloads — intended for receives whose payloads
// were already consumed via Test-driven binding or that carry only
// synchronization (acknowledgements, counts read elsewhere). For
// payload-carrying receives, call Wait on each handle.
func WaitAll(hs ...*RecvHandle) {
	for _, h := range hs {
		h.Wait()
	}
}

// ensureBound blocks until the handle's message is bound, without
// folding the meter (RunSteps' blocking drive between Step calls).
func (h *RecvHandle) ensureBound() {
	if h.state == hPending {
		h.pe.fillUntil(h)
	}
}

// prevPendingFor returns the closest older pending handle for the
// (src, ctx) stream before h in the outstanding list, or nil.
func (h *RecvHandle) prevPendingFor(src int, ctx uint32) *RecvHandle {
	for g := h.prev; g != nil; g = g.prev {
		if g.src == src && g.ctx == ctx && g.state == hPending {
			return g
		}
	}
	return nil
}

// oldestPendingFor returns the oldest pending handle for the (src, ctx)
// stream. The caller guarantees one exists.
func (pe *PE) oldestPendingFor(src int, ctx uint32) *RecvHandle {
	for g := pe.outHead; g != nil; g = g.next {
		if g.src == src && g.ctx == ctx && g.state == hPending {
			return g
		}
	}
	panic(fmt.Sprintf("comm: PE %d: no pending receive from %d ctx %d", pe.rank, src, ctx))
}

// fillUntil blocks taking messages from h's stream, binding them to the
// pending handles for that stream in posting order, until h is bound.
func (pe *PE) fillUntil(h *RecvHandle) {
	key := mailbox.Key(h.src, h.ctx)
	for h.state != hBound {
		g := pe.oldestPendingFor(h.src, h.ctx)
		msg, ok := pe.in.TryTakeKey(key)
		if !ok {
			pe.m.park(pe.sidx)
			t0 := time.Now()
			msg, ok = pe.in.TakeKey(key)
			pe.waitNs += time.Since(t0).Nanoseconds()
			if !ok {
				panic(abortedError{})
			}
		}
		pe.bindMsg(g, msg)
	}
}

// bindMsg attaches a delivered message to its handle, enforcing the SPMD
// tag discipline exactly like Recv.
func (pe *PE) bindMsg(h *RecvHandle, msg mailbox.Msg) {
	if Tag(msg.Tag) != h.tag {
		panic(fmt.Sprintf("comm: PE %d: tag mismatch receiving from %d: got %d want %d (desynchronized SPMD program)",
			pe.rank, h.src, msg.Tag, h.tag))
	}
	h.msg = msg
	h.state = hBound
}

// getHandle pops a pooled handle (per-PE freelist, so steady-state
// IRecv — and therefore Recv — allocates nothing).
func (pe *PE) getHandle() *RecvHandle {
	h := pe.freeH
	if h == nil {
		return &RecvHandle{pe: pe}
	}
	pe.freeH = h.next
	h.next = nil
	return h
}

// putHandle recycles a consumed handle, dropping the payload reference.
func (pe *PE) putHandle(h *RecvHandle) {
	h.state = hFree
	h.msg = mailbox.Msg{}
	h.prev = nil
	h.next = pe.freeH
	pe.freeH = h
}

// outAppend adds h at the tail of the outstanding list.
func (pe *PE) outAppend(h *RecvHandle) {
	h.prev = pe.outTail
	h.next = nil
	if pe.outTail != nil {
		pe.outTail.next = h
	} else {
		pe.outHead = h
	}
	pe.outTail = h
}

// outUnlink removes h from the outstanding list.
func (pe *PE) outUnlink(h *RecvHandle) {
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		pe.outHead = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	} else {
		pe.outTail = h.prev
	}
	h.prev, h.next = nil, nil
}

// resetAsync drops any outstanding handles, the current stepper and the
// context state — abort-path cleanup so a machine is reusable after a
// failed run.
func (pe *PE) resetAsync() {
	pe.step = nil
	pe.ctx = 0
	for h := pe.outHead; h != nil; {
		next := h.next
		pe.putHandle(h)
		h = next
	}
	pe.outHead, pe.outTail = nil, nil
}

// Stepper is a resumable PE body: Step runs as far as it can and returns
// nil when the body is done, or the pending RecvHandle it cannot proceed
// without. The scheduler re-invokes Step once that handle's message has
// arrived (the handle is then bound, so the stepper's Wait on it will
// not block). Step must tolerate re-invocation at the same point and
// must not block (use Step-suspension, not blocking Wait/Recv) for the
// O(w) mid-run residency guarantee to hold.
type Stepper interface {
	Step(pe *PE) *RecvHandle
}

// MultiWaiter is an optional Stepper extension for bodies multiplexing
// several independent protocols — the serving mux, whose query slots
// suspend on handles in different communication contexts. A plain
// Stepper suspends on exactly the one handle Step returned; a
// MultiWaiter body instead advertises every handle it could resume on,
// and the scheduler arms its mailbox on all of them (ArmKeys) — resp.
// blocks on any of them under a blocking drive — so whichever query's
// message arrives first resumes the body. Without this, two PEs can
// deadlock each blocked on the other query's traffic even though both
// queries are individually deadlock-free.
type MultiWaiter interface {
	Stepper
	// PendingHandles appends the pending (unbound) handles the body is
	// currently suspended on to buf and returns it. Called only when
	// Step has just returned a non-nil handle; that handle must be
	// among them.
	PendingHandles(buf []*RecvHandle) []*RecvHandle
}

// StepFunc adapts a closure (typically over its own mutable state) to
// the Stepper interface.
type StepFunc func(pe *PE) *RecvHandle

// Step implements Stepper.
func (f StepFunc) Step(pe *PE) *RecvHandle { return f(pe) }

// Seq composes steppers into one body that runs them to completion in
// order — the building block for multi-collective continuation bodies.
// The composition state is allocated per call; hot callers use SeqP.
func Seq(steps ...Stepper) Stepper {
	// The variadic slice is call-owned; retaining it directly is safe
	// (only SeqP must copy, into its pooled backing).
	return &seqStep{steps: steps}
}

// SeqP is Seq with the composition state drawn from the PE's stepper
// pool (see steppool.go) and released when the sequence completes, so a
// body built fresh every op allocates nothing in steady state. The
// variadic argument slice is copied, not retained.
func SeqP(pe *PE, steps ...Stepper) Stepper {
	s := GetPooled[seqStep](pe)
	s.steps = append(s.steps[:0], steps...)
	s.i = 0
	s.pooled = true
	return s
}

type seqStep struct {
	steps  []Stepper
	i      int
	pooled bool
}

func (s *seqStep) Step(pe *PE) *RecvHandle {
	for s.i < len(s.steps) {
		if h := s.steps[s.i].Step(pe); h != nil {
			return h
		}
		// Completed steppers release their own state; drop the reference
		// so a pooled sequence does not retain it.
		s.steps[s.i] = nil
		s.i++
	}
	if s.pooled {
		s.steps = s.steps[:0]
		s.i = 0
		s.pooled = false
		PutPooled(pe, s)
	}
	return nil
}

// RunSteps drives a stepper to completion with blocking waits — the
// bridge that lets one stepper implementation serve both worlds: inside
// a blocking body (or on the channel matrix) RunSteps parks like any
// blocking protocol; under RunAsync on a Box machine the scheduler
// drives the same Step calls without ever blocking a goroutine. A
// MultiWaiter body blocks on any of its pending handles instead of the
// one Step returned.
func RunSteps(pe *PE, st Stepper) {
	mw, _ := st.(MultiWaiter)
	for {
		h := st.Step(pe)
		if h == nil {
			return
		}
		if mw != nil {
			pe.hBuf = mw.PendingHandles(pe.hBuf[:0])
			if len(pe.hBuf) > 1 {
				pe.waitAnyBound(pe.hBuf)
				continue
			}
		}
		h.ensureBound()
	}
}

// waitAnyBound blocks until at least one of the pending handles hs is
// bound, without folding any meter: the intake waits on the handles'
// (src, ctx) keys. hs must belong to the running PE body and be pending.
func (pe *PE) waitAnyBound(hs []*RecvHandle) {
	// Messages may already be queued (or have raced in since Step
	// returned): a non-blocking sweep binds them without parking.
	for _, h := range hs {
		if h.Test() {
			return
		}
	}
	pe.keyBuf = pe.streamKeys(hs)
	pe.m.park(pe.sidx)
	t0 := time.Now()
	msg, ok := pe.in.WaitAnyKeys(pe.keyBuf)
	pe.waitNs += time.Since(t0).Nanoseconds()
	if !ok {
		panic(abortedError{})
	}
	pe.bindMsg(pe.oldestPendingFor(msg.Src, msg.Ctx), msg)
}

// streamKeys rebuilds the PE's key buffer from the (src, ctx) streams of hs.
func (pe *PE) streamKeys(hs []*RecvHandle) []uint64 {
	keys := pe.keyBuf[:0]
	for _, h := range hs {
		keys = append(keys, mailbox.Key(h.src, h.ctx))
	}
	return keys
}

// RunAsync executes a continuation-scheduled SPMD program: start is
// called once per PE and returns the PE's body as a Stepper (nil for an
// empty body). On Box machines the sharded scheduler drives the
// steppers directly — a suspension returns the worker to the scheduler,
// so the machine holds exactly w goroutines even while thousands of PE
// bodies are waiting mid-collective. On the channel matrix the steppers
// are driven with blocking waits on one goroutine per PE (the naive
// differential reference). Results and statistics are bit-identical to
// the equivalent blocking Run on either backend. Error semantics and
// machine reuse match Run.
func (m *Machine) RunAsync(start func(pe *PE) Stepper) error {
	if m.sched == nil {
		return m.Run(func(pe *PE) {
			if st := start(pe); st != nil {
				RunSteps(pe, st)
			}
		})
	}
	m.asyncStart = start
	m.sched.Run(m.execAsync)
	m.asyncStart = nil
	return m.finishRun()
}

// MustRunAsync is RunAsync but panics on error.
func (m *Machine) MustRunAsync(start func(pe *PE) Stepper) {
	if err := m.RunAsync(start); err != nil {
		panic(err)
	}
}

// execAsyncRank drives one PE's stepper as far as it can go. Returning
// false suspends the rank: its mailbox is armed, and the arming message's
// arrival (or an abort) re-enqueues the rank via the scheduler's ready
// queue. Created once per machine (execAsync field) so RunAsync dispatch
// does not allocate per rank.
func (m *Machine) execAsyncRank(rank int) (done bool) {
	pe := m.pes[rank]
	defer func() {
		if r := recover(); r != nil {
			pe.resetAsync()
			done = true
			m.foldStats(pe)
			if _, ok := r.(abortedError); !ok {
				m.abortErr(fmt.Errorf("comm: PE %d panicked: %v\n%s", pe.rank, r, debug.Stack()))
			}
		}
	}()
	if pe.step == nil {
		pe.step = m.asyncStart(pe)
		if pe.step == nil {
			m.foldStats(pe)
			return true
		}
	}
	for {
		h := pe.step.Step(pe)
		if h == nil {
			pe.step = nil
			m.foldStats(pe)
			return true
		}
		if h.state != hBound {
			box := m.boxes[rank]
			var armed bool
			if mw, ok := pe.step.(MultiWaiter); ok {
				// Multi-query bodies resume when ANY pending receive can
				// bind, not just the one Step happened to return — arming
				// on a single key would strand progress on the others.
				pe.hBuf = mw.PendingHandles(pe.hBuf[:0])
				pe.keyBuf = pe.streamKeys(pe.hBuf)
				armed = box.ArmKeys(pe.keyBuf)
			} else {
				armed = box.ArmKey(mailbox.Key(h.src, h.ctx))
			}
			if armed {
				// Suspended: the body exists only as data (pe.step plus the
				// armed box) until the message arrives. No goroutine parks.
				return false
			}
			if box.Interrupted() {
				// Machine abort: the awaited message will never come and a
				// Test-polling stepper would spin. Unwind like a blocking
				// receive would (recovered above).
				panic(abortedError{})
			}
		}
		// The message arrived while arming (or was already bound): keep
		// stepping on this worker.
	}
}
