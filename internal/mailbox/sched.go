package mailbox

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sched is the sharded worker scheduler that decouples goroutines from
// PEs. The previous runtime (and the channel-matrix engine) dedicated one
// goroutine to every PE, so a resident p-PE machine held p parked
// goroutine stacks — ~2–8 KB each, which dominates machine memory long
// before the O(p) mailboxes do (p = 131072 ≈ 0.25–1 GiB of stacks doing
// nothing between runs). Sched instead multiplexes the p PE bodies over
// w ≪ p shards, each a run queue over a contiguous rank range:
//
//   - w permanent workers, one per shard, started on the first Run and
//     kicked over buffered channels. A worker claims ranks off its
//     shard's queue in small batches (one atomic per popBatch ranks) and
//     runs each PE body inline on its own stack; a Run whose bodies
//     never block dispatches entirely on these w goroutines and
//     allocates nothing. However a worker wakes, it first claims its own
//     shard for the current run, so a worker handed another shard
//     before its kick arrives passes its own shard on rather than
//     stranding it behind a blocked body.
//   - A body may finish a call to exec in one of three ways. Returning
//     true means the rank is done. Returning false means the body
//     suspended itself as a continuation (comm.RunAsync): it armed its
//     mailbox and returned the worker to the scheduler, which simply
//     keeps driving — no goroutine parks at all. When the armed message
//     arrives, the box's notify callback calls Ready(rank) and the rank
//     is re-run (exec again, same bool protocol) from the ready queues.
//     This is the path that keeps mid-run goroutine residency at
//     exactly w for continuation-scheduled workloads.
//   - A body that instead blocks inside exec (a legacy blocking Recv)
//     first calls WillPark. If the goroutine currently holds its shard's
//     driver role and the shard still has pending work, the role — and
//     the unrun remainder of the driver's claimed batch, spilled onto
//     the shard — is handed off to a permanent worker whose own shard is
//     drained, or, if all are busy, to a freshly spawned transient
//     goroutine, so the queue keeps draining while the body sleeps on
//     its mailbox condition variable. The parked body keeps its
//     goroutine (Go cannot suspend a stack any other way), but that
//     goroutine is transient: it exits as soon as the body finishes,
//     having lost its driver role.
//
// The resulting resident goroutine count — what a machine costs while it
// merely exists between runs — is exactly w, pinned by
// TestMailboxGoroutineCountResident in internal/comm; for continuation
// bodies the bound holds mid-run too (TestRunAsyncMidRunResidency).
// StateBytes reports the scheduler's own footprint so the machine-memory
// estimators stay honest.
//
// Concurrency contract: Run and Close are called from one coordinating
// goroutine at a time, and exec must not panic (wrap bodies with recover
// at the call site). WillPark is called only from inside exec, on the
// goroutine running that rank. Ready is called from any goroutine, but
// only for a rank whose exec previously returned false — and only once
// per suspension.
type Sched struct {
	shards []shard
	// driverOf[rank] is the shard index whose driver role the goroutine
	// running rank currently holds, or -1. Only ever accessed by the
	// goroutine running that rank: the driver sets it before exec, WillPark
	// clears it on hand-off, the driver reads it after exec to learn
	// whether it is still driving. A suspended body (exec false) leaves it
	// untouched — the resuming worker overwrites it before re-running, and
	// the box-lock/ready-lock chain orders that write after ours.
	driverOf []int32
	// remHi[rank] is the exclusive end of the claimed-but-unstarted batch
	// remainder behind the body currently running rank (rank+1 ≤ remainder
	// < remHi). WillPark spills it so a hand-off never strands claimed
	// ranks. Same single-goroutine access discipline as driverOf.
	remHi []int32
	// kick[i] (buffered, cap 1) wakes permanent worker i for a new run;
	// work hands a parked driver's shard to whichever permanent worker is
	// between assignments. work is unbuffered: a send succeeds only if a
	// worker is actually parked in receive, so hand-off never blocks
	// (transient spawn on the miss) and never strands a role.
	kick []chan struct{}
	work chan int32
	// run counts Runs. ownRun[i] is the last run in which worker i has
	// claimed its own shard (claimOwn): driven it, or passed it on when a
	// hand-off reached the worker before its kick. A worker blocked in a
	// handed-off body when its kick lands thus never strands its shard.
	// ownRun[i] is only touched by worker i.
	run    atomic.Uint32
	ownRun []uint32
	// The ready queues of resumed continuation ranks: one intrusive FIFO
	// per shard (head/tail/mutex in the shard, shardOf maps rank →
	// shard), threaded through readyNext, so concurrent-query resume
	// storms from many producer threads spread over w mutexes instead of
	// serializing on one. They are drained by whichever driver or idle
	// worker sees them first. readyCh (buffered, cap w) carries coalesced
	// wake-ups for workers parked between assignments. readyCount is
	// global: count > 0 means a token is pending or a goroutine is on
	// draining duty.
	shardOf    []int32
	readyNext  []int32
	readyCount atomic.Int32
	readyCh    chan struct{}
	// wg counts PE bodies still open in the current Run.
	wg      sync.WaitGroup
	exec    func(rank int) bool
	started bool

	closeOnce sync.Once
}

// defaultPopBatch is the number of ranks a driver claims per cursor
// atomic: the hand-off churn constant. A parked driver's unrun remainder
// is spilled (see WillPark), so batching never strands ranks behind a
// sleeping body. A host-side scheduling constant only: results and
// metering are independent of it.
const defaultPopBatch = 8

// shard is one run queue: the contiguous rank range [lo, hi), the cursor
// of the next rank to claim, and the spill list of batch remainders
// parked drivers left behind. The cursor is atomic because drivers
// overlap run boundaries: a driver that has just finished its shard's
// last body (and released the run's WaitGroup) re-checks the cursor
// while the coordinator may already be resetting it for the next run —
// and a hand-off can give a shard a second driver while such a straggler
// is still looping. Atomic fetch-add pops make every interleaving safe:
// each batch is claimed exactly once, and a straggler that claims ranks
// of the new run simply becomes one of its drivers (its cursor load
// orders it after the coordinator's exec/WaitGroup writes).
type shard struct {
	lo, hi int
	next   atomic.Int32
	mu     sync.Mutex
	spill  []span
	spillN atomic.Int32
	// The shard's ready list: resumed ranks in [lo, hi), threaded
	// through the scheduler's shared readyNext array. Guarded by rMu,
	// separate from mu so resume storms never contend with spill
	// traffic.
	rMu          sync.Mutex
	rHead, rTail int32
}

// span is a half-open rank interval [lo, hi) of claimed, unstarted ranks.
type span struct{ lo, hi int32 }

func (sh *shard) pushSpill(sp span) {
	sh.mu.Lock()
	sh.spill = append(sh.spill, sp)
	sh.spillN.Store(int32(len(sh.spill)))
	sh.mu.Unlock()
}

func (sh *shard) popSpill() (span, bool) {
	sh.mu.Lock()
	n := len(sh.spill)
	if n == 0 {
		sh.mu.Unlock()
		return span{}, false
	}
	sp := sh.spill[n-1]
	sh.spill = sh.spill[:n-1]
	sh.spillN.Store(int32(n - 1))
	sh.mu.Unlock()
	return sp, true
}

// NewSched creates a scheduler for p ranks over w shards (clamped to
// 1 ≤ w ≤ p) with per-shard ready queues. No goroutines are started
// until the first Run.
func NewSched(p, w int) *Sched {
	if w < 1 {
		w = 1
	}
	if w > p {
		w = p
	}
	sc := &Sched{
		shards:    make([]shard, w),
		driverOf:  make([]int32, p),
		remHi:     make([]int32, p),
		shardOf:   make([]int32, p),
		readyNext: make([]int32, p),
		kick:      make([]chan struct{}, w),
		work:      make(chan int32),
		ownRun:    make([]uint32, w),
		readyCh:   make(chan struct{}, w),
	}
	for i := range sc.shards {
		sc.shards[i].lo = i * p / w
		sc.shards[i].hi = (i + 1) * p / w
		sc.shards[i].next.Store(int32(sc.shards[i].hi)) // empty until Run
		sc.shards[i].rHead = -1
		sc.shards[i].rTail = -1
		sc.kick[i] = make(chan struct{}, 1)
		for r := sc.shards[i].lo; r < sc.shards[i].hi; r++ {
			sc.shardOf[r] = int32(i)
		}
	}
	for i := range sc.driverOf {
		sc.driverOf[i] = -1
	}
	return sc
}

// Workers returns the shard count w.
func (sc *Sched) Workers() int { return len(sc.shards) }

// Run executes exec(rank) for every rank and blocks until every rank is
// done. exec reports whether the rank completed: false means the body
// suspended itself (after arming its mailbox) and will be re-executed —
// possibly on a different goroutine — once Ready(rank) is called. A rank
// that blocks instead hands its shard to another goroutine (see
// WillPark), so queued ranks never wait on a parked one.
func (sc *Sched) Run(exec func(rank int) bool) {
	sc.exec = exec
	sc.wg.Add(len(sc.driverOf))
	for i := range sc.shards {
		sc.shards[i].next.Store(int32(sc.shards[i].lo))
	}
	// Publish the run only after the cursors are reset: a worker that sees
	// it may claim and drive its shard before its kick arrives.
	sc.run.Add(1)
	if !sc.started {
		sc.started = true
		for i := range sc.kick {
			go sc.worker(sc.kick[i], int32(i))
		}
	}
	for i := range sc.kick {
		select {
		case sc.kick[i] <- struct{}{}:
		default:
			// A stale kick is still pending; it wakes the worker, which
			// then claims its shard for this run.
		}
	}
	sc.wg.Wait()
	sc.exec = nil
}

// Ready re-enqueues a suspended rank whose awaited message has arrived
// (the mailbox notify callback). Safe from any goroutine; the rank is
// picked up by an active driver between bodies or by an idle worker via
// readyCh.
func (sc *Sched) Ready(rank int) {
	sh := &sc.shards[sc.shardOf[rank]]
	sh.rMu.Lock()
	sc.readyNext[rank] = -1
	if sh.rTail >= 0 {
		sc.readyNext[sh.rTail] = int32(rank)
	} else {
		sh.rHead = int32(rank)
	}
	sh.rTail = int32(rank)
	sc.readyCount.Add(1)
	sh.rMu.Unlock()
	select {
	case sc.readyCh <- struct{}{}:
	default:
		// readyCh full: w wake-ups are already pending, and every waking
		// worker drains the queue to empty before re-parking.
	}
}

// popReady dequeues one resumed rank, or -1. The atomic count makes the
// empty check lock-free (drivers poll it between bodies). pref is the
// calling driver's shard (-1: none): its own ready list is tried first,
// then the others round-robin — work stealing, so a resume never waits
// on the locality preference. A pop may return -1 while readyCount is
// transiently positive (a push landing behind the scan); the offDuty
// hand-off backstop covers that window.
func (sc *Sched) popReady(pref int32) int {
	if sc.readyCount.Load() == 0 {
		return -1
	}
	w := int32(len(sc.shards))
	if pref < 0 {
		pref = 0
	}
	for off := int32(0); off < w; off++ {
		sh := &sc.shards[(pref+off)%w]
		sh.rMu.Lock()
		r := sh.rHead
		if r < 0 {
			sh.rMu.Unlock()
			continue
		}
		sh.rHead = sc.readyNext[r]
		if sh.rHead < 0 {
			sh.rTail = -1
		}
		sc.readyCount.Add(-1)
		sh.rMu.Unlock()
		return int(r)
	}
	return -1
}

// worker is a permanent scheduler goroutine: woken by its kick once per
// Run, by driver hand-offs from parked bodies in any shard, and by
// readyCh to resume suspended continuation bodies. Whatever woke it, it
// first claims its own shard for the current run, then drains the ready
// queue before it parks again — so it never leaves draining duty to a
// transient.
func (sc *Sched) worker(kick chan struct{}, own int32) {
	for {
		select {
		case _, ok := <-kick:
			if !ok {
				return
			}
		case s, ok := <-sc.work:
			if !ok {
				return
			}
			if s >= 0 {
				// A parked driver's shard cannot wait behind ours, whose
				// bodies may block too: pass our unstarted shard on first.
				if sc.claimOwn(own) {
					sc.handOff(own)
				}
				sc.drive(s)
			}
		case <-sc.readyCh:
		}
		if sc.claimOwn(own) {
			sc.drive(own)
		}
		sc.drainReady()
	}
}

// claimOwn reports whether worker own has not yet claimed its shard in
// the current run, and claims it. Called only by worker own.
func (sc *Sched) claimOwn(own int32) bool {
	r := sc.run.Load()
	if sc.ownRun[own] == r {
		return false
	}
	sc.ownRun[own] = r
	return true
}

// drainReady runs resumed ranks until every ready queue is empty.
func (sc *Sched) drainReady() {
	for {
		r := sc.popReady(-1)
		if r < 0 {
			return
		}
		sc.runOne(-1, r, int32(r)+1)
	}
}

// offDuty runs as a goroutine leaves scheduling duty without returning
// to a worker's select loop: a transient exiting, or a role-less body
// about to block. If resumed ranks are waiting, hand the draining duty
// off: the readyCh token that accompanied their Ready is only consumable
// by a worker parked in select, and every permanent worker may be
// blocked inside a body whose progress depends on exactly those ranks
// (found by review: a transient finishing a formerly-parked body exited
// here while the last Ready of the run sat unserviced — deadlock at
// w = 1). A spurious hand-off when another goroutine drains the queue
// first is benign.
func (sc *Sched) offDuty() {
	if sc.readyCount.Load() > 0 {
		sc.handOff(-1)
	}
}

// handOff gives shard s's driver role — or, for s < 0, the ready-queue
// draining duty — to a permanent worker parked between assignments, or
// spawns a transient goroutine when none is. Never blocks.
func (sc *Sched) handOff(s int32) {
	select {
	case sc.work <- s:
	default:
		go sc.transient(s)
	}
}

// transient is the body of a goroutine handOff spawned: it drives shard
// s (s ≥ 0), drains the ready queue, and hands on any draining duty that
// arrived meanwhile before it exits.
func (sc *Sched) transient(s int32) {
	if s >= 0 {
		sc.drive(s)
	}
	sc.drainReady()
	sc.offDuty()
}

// drive runs shard s's pending work — resumed continuation ranks first,
// then spilled batch remainders, then fresh cursor batches — until
// nothing is left or the running body hands the driver role away.
func (sc *Sched) drive(s int32) {
	sh := &sc.shards[s]
	for {
		if r := sc.popReady(s); r >= 0 {
			if !sc.runOne(s, r, int32(r)+1) {
				return
			}
			continue
		}
		if sh.spillN.Load() > 0 {
			if sp, ok := sh.popSpill(); ok {
				if !sc.runSpan(s, sp) {
					return
				}
				continue
			}
		}
		lo := int(sh.next.Add(defaultPopBatch) - defaultPopBatch)
		if lo >= sh.hi {
			return
		}
		hi := min(lo+defaultPopBatch, sh.hi)
		if !sc.runSpan(s, span{int32(lo), int32(hi)}) {
			return
		}
	}
}

// runSpan runs the claimed ranks of sp in order, reporting whether the
// goroutine still holds the driver role afterwards. When a body parks,
// its WillPark spills the unrun remainder (which runOne advertised via
// remHi), so the hand-off recipient picks it up.
func (sc *Sched) runSpan(s int32, sp span) bool {
	for i := sp.lo; i < sp.hi; i++ {
		if !sc.runOne(s, int(i), sp.hi) {
			return false
		}
	}
	return true
}

// runOne executes rank i's body while holding shard role s (-1 when the
// caller holds no role, e.g. drainReady), with remHi the exclusive end
// of the caller's claimed batch behind i. Returns whether the caller
// still holds its driver role. A suspended body (exec false) must leave
// scheduler state alone: the resuming goroutine may already be running
// this rank concurrently with our return.
func (sc *Sched) runOne(s int32, i int, remHi int32) (keepRole bool) {
	sc.driverOf[i] = s
	sc.remHi[i] = remHi
	if !sc.exec(i) {
		return true // suspended: rank re-runs via Ready; wg stays open
	}
	lost := s >= 0 && sc.driverOf[i] < 0
	sc.driverOf[i] = -1
	sc.wg.Done()
	return !lost
}

// WillPark declares that the body running rank is about to block waiting
// for a message. If that body holds its shard's driver role, the unrun
// remainder of its claimed batch is spilled and — if the shard has any
// pending work — the role is handed off so the queue keeps draining;
// otherwise it is a cheap no-op. Must be called from inside exec on the
// goroutine running rank. Calling it and then not blocking (the message
// arrived meanwhile) is harmless — the role is simply gone.
func (sc *Sched) WillPark(rank int) {
	s := sc.driverOf[rank]
	if s < 0 {
		// A role-less body (resumed via drainReady) about to block: it
		// cannot strand a shard queue, but it may be the only goroutine
		// positioned to service the ready queue — and the rank that would
		// unblock it can already be sitting there (its Ready fired before
		// this body parked; after the park, only running bodies create new
		// Ready events). Hand the draining duty off so resumes keep
		// flowing.
		sc.offDuty()
		return
	}
	sc.driverOf[rank] = -1
	sh := &sc.shards[s]
	if hi := sc.remHi[rank]; int32(rank)+1 < hi {
		sh.pushSpill(span{int32(rank) + 1, hi})
	}
	// A stale read here only costs a spurious hand-off (the receiving
	// worker finds the queues empty); batches are claimed atomically in
	// drive and spans popped under the shard lock.
	if sh.spillN.Load() > 0 || int(sh.next.Load()) < sh.hi || sc.readyCount.Load() > 0 {
		sc.handOff(s)
	}
}

// Close releases the permanent worker goroutines. Must not overlap a
// Run; Run must not be called afterwards. Idempotent.
func (sc *Sched) Close() {
	sc.closeOnce.Do(func() {
		close(sc.work)
		for _, c := range sc.kick {
			close(c)
		}
	})
}

// StateBytes estimates the scheduler's resident memory for p ranks and w
// shards: shard, kick-channel, driver/remainder/ready bookkeeping plus
// the w permanent goroutine stacks. Goroutine stacks start at ~8 KB of
// reserved address space; the estimate charges that in full so
// machine-memory claims err high.
func StateBytes(p, w int) int64 {
	if w > p {
		w = p
	}
	const stackBytes = 8 << 10
	const kickBytes = 96 + 16     // hchan + slot + slice entry
	const perRank = 4 + 4 + 4 + 4 // driverOf + remHi + readyNext + shardOf
	return int64(w)*(int64(unsafe.Sizeof(shard{}))+kickBytes+stackBytes) + int64(p)*perRank
}
