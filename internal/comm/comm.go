// Package comm provides the distributed-machine substrate the paper's
// algorithms run on: p processing elements (PEs) executing the same SPMD
// program as goroutines, exchanging point-to-point messages through a
// pluggable message runtime (see Backend).
//
// The package meters every message in machine words and startups, and keeps
// a per-PE "LogP-lite" virtual clock so the paper's cost model
// O(x + βy + αz) is directly observable: x (local work) is wall time,
// y (bottleneck communication volume) and z (startups) are counters, and
// the virtual clock approximates the α/β critical path.
//
// Cost model (Section 2 of the paper): single-ported full-duplex
// communication; sending a message of m machine words takes time α + mβ.
// Send advances the sender's virtual clock by α+βm and stamps the message
// with the resulting time; Recv advances the receiver's clock to the
// maximum of its own clock and the stamp. Local computation is not added
// to the virtual clock.
//
// Sends take one path (Send, or SendRecv for an exchange). Receives come
// in blocking form (Recv) and non-blocking form (IRecv handles with
// Test/Wait/WaitAll — the MPI_Irecv/MPI_Wait shape the paper's substrate
// assumes); Recv is sugar for IRecv+Wait, and the meter folds at Wait in
// program order, so both forms are bit-identical in results and
// statistics. PE bodies likewise run in two forms: blocking
// (Machine.Run) or continuation-scheduled (Machine.RunAsync over Stepper
// bodies), where a wait on an unbound handle suspends the body as data
// instead of parking a goroutine — see async.go.
//
// # Backends
//
// Every PE runs one core — metering, the tag discipline, IRecv handles,
// steppers — over two narrow seams: a per-destination sink that Send,
// Post and Deliver hand a mailbox.Msg to, and the PE's own intake, which
// receives take from by (source, context) key, plus the Interrupt/Reset
// pair the abort path uses. Two intakes implement them:
//
//   - the mailbox.Box (BackendMailbox, the default, and BackendWire): one
//     MPSC mailbox per receiver — O(p) queue memory. On BackendWire the
//     sink of a non-local rank forwards to Config.Remote instead.
//   - the channel matrix (BackendChannelMatrix, matrix.go): one buffered
//     channel per ordered PE pair — O(p²) queue memory, which caps it
//     near p ≈ 512. It is the independent reference the mailbox runtime
//     is pinned against (MatrixConfig, differential tests in
//     internal/experiments).
//
// The only other backend difference is the driver. Box machines run the
// p bodies on the sharded scheduler (internal/mailbox): w =
// min(GOMAXPROCS·8, p) shards, a blocked Recv hands its shard's driver
// role to an idle spare, continuation bodies suspend as data, and the
// resident goroutine count is O(w), which is what scales to p = 131072.
// The matrix runs one goroutine per PE for the duration of a run. Both
// drivers call the same per-rank wrapper, so panics, aborts and the O(1)
// folded Stats behave identically.
package comm

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"commtopk/internal/mailbox"
)

// Backend selects the message runtime of a Machine.
type Backend int

const (
	// BackendChannelMatrix is the reference transport (matrix.go): a
	// buffered channel per ordered PE pair and one goroutine per PE per
	// Run. Retained as the differential reference; the Config zero value
	// keeps selecting it so explicitly constructed Configs are
	// unambiguous.
	BackendChannelMatrix Backend = iota
	// BackendMailbox is the scalable engine (and the DefaultConfig
	// choice): per-receiver MPSC mailboxes and the sharded worker
	// scheduler.
	BackendMailbox
	// BackendWire is the multi-process engine: this machine owns only the
	// contiguous local rank window Config.Remote [Lo, Hi) of the full
	// p-PE machine, runs it on the mailbox scheduler exactly like
	// BackendMailbox, and hands every message addressed outside the
	// window to Config.Remote.Forward — the seam internal/wire plugs its
	// socket transport into. Incoming cross-process messages are injected
	// with Machine.Deliver. Metering is unchanged: the sender stamps
	// depart before the frame leaves, the frame carries the stamp, and
	// the receiver folds the α/β receive rule against it, so results and
	// per-PE meters are bit-identical to an in-process machine.
	BackendWire
)

// String names the backend as used in benchmark reports and CLI flags.
func (b Backend) String() string {
	switch b {
	case BackendMailbox:
		return "mailbox"
	case BackendWire:
		return "wire"
	default:
		return "chanmatrix"
	}
}

// Tag identifies the protocol step a message belongs to. Collectives draw
// tags from a per-PE sequence that stays synchronized because every PE
// enters every collective (SPMD); point-to-point protocols use explicit
// tags. A tag mismatch on receive indicates a desynchronized program and
// panics immediately rather than silently mismatching payloads.
type Tag uint64

// Config describes the simulated machine.
type Config struct {
	// P is the number of processing elements.
	P int
	// Alpha is the modeled message startup cost (arbitrary time units).
	Alpha float64
	// Beta is the modeled per-word transfer cost (same units as Alpha).
	Beta float64
	// Seed seeds the per-PE deterministic RNG streams (see NewPERandSeed).
	Seed int64
	// Backend selects the message runtime. The zero value is the original
	// channel matrix.
	Backend Backend
	// Workers is the mailbox scheduler width w: the number of shards the
	// p PE bodies are multiplexed over, and the machine's resident
	// goroutine budget. 0 selects min(GOMAXPROCS·8, p); any value is
	// clamped to [1, p]. Ignored by the channel matrix. Execution results
	// and metering are independent of w (pinned by the differential
	// tests); w only trades host parallelism against resident memory.
	Workers int
	// Remote windows a BackendWire machine to its process-local
	// contiguous rank range (required for BackendWire, ignored
	// otherwise). See BackendWire.
	Remote *Remote
}

// Remote describes the local rank window of one process of a
// BackendWire machine and the transport hook for everything outside it.
type Remote struct {
	// Lo, Hi bound the local window [Lo, Hi): this process constructs
	// boxes, PEs and scheduler state for exactly these ranks.
	Lo, Hi int
	// Forward ships a message addressed to a non-local rank (or an
	// external Post to one) across the transport. Called synchronously
	// from the sending PE's goroutine — it must not block indefinitely
	// (the wire transport enqueues to a per-connection writer). The
	// message arrives at the owning process via Machine.Deliver.
	Forward func(dst int, msg mailbox.Msg)
}

// DefaultConfig returns a machine configuration with p PEs on the mailbox
// backend and the default α/β ratio used throughout the benchmarks
// (α = 1000β, a typical cluster-interconnect ratio of startup latency to
// per-word bandwidth). Since PR 3 the default runtime is the mailbox
// engine; use MatrixConfig for the channel-matrix reference.
func DefaultConfig(p int) Config {
	return Config{P: p, Alpha: 1000, Beta: 1, Seed: 1, Backend: BackendMailbox}
}

// MailboxConfig is DefaultConfig with the mailbox backend made explicit.
// It predates the default flip and is kept so call sites that must not
// silently follow future default changes can say what they mean.
func MailboxConfig(p int) Config {
	cfg := DefaultConfig(p)
	cfg.Backend = BackendMailbox
	return cfg
}

// MatrixConfig is DefaultConfig on the channel-matrix engine — the
// differential-reference configuration. Its O(p²) queue memory
// limits it to small p; everything at scale runs on DefaultConfig.
func MatrixConfig(p int) Config {
	cfg := DefaultConfig(p)
	cfg.Backend = BackendChannelMatrix
	return cfg
}

// SchedWorkers resolves the mailbox scheduler width w for cfg: the
// explicit cfg.Workers clamped to [1, p], or min(GOMAXPROCS·8, p) when
// unset. Returns 0 for the channel matrix (which binds one goroutine per
// PE for the duration of each Run).
func SchedWorkers(cfg Config) int {
	if cfg.Backend == BackendChannelMatrix {
		return 0
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0) * 8
	}
	return max(1, min(w, localP(cfg)))
}

// localP is the number of PEs this process hosts: the Remote window for
// a wire machine, all of cfg.P otherwise.
func localP(cfg Config) int {
	if cfg.Backend == BackendWire && cfg.Remote != nil {
		return cfg.Remote.Hi - cfg.Remote.Lo
	}
	return cfg.P
}

// QueueBytes estimates the message-queue memory NewMachine allocates up
// front for cfg: the channel matrix pays p² buffered channels, the
// mailbox backend p empty intake boxes and one sink slot per rank. The
// scaling harness uses the estimate as its memory-budget guard (refusing
// configurations that could not complete) and tests pin the O(p) vs
// O(p²) growth.
func QueueBytes(cfg Config) int64 {
	p := int64(cfg.P)
	switch cfg.Backend {
	case BackendMailbox, BackendWire:
		const boxBytes = int64(unsafe.Sizeof(mailbox.Box{})) + 8 // box + boxes slot
		const sinkBytes = int64(unsafe.Sizeof(sink(nil)))
		return int64(localP(cfg))*boxBytes + p*sinkBytes
	default:
		// hchan header (~96 B) + ring buffer of messages; the +1 row is
		// the per-destination external-injection channels.
		const hchanBytes = 96
		msgBytes := int64(unsafe.Sizeof(mailbox.Msg{}))
		return (p*p + p) * (hchanBytes + chanCap*msgBytes)
	}
}

// MachineBytes estimates the full resident cost of a machine for cfg:
// the message queues (QueueBytes) plus the per-PE handles and, on the
// mailbox backend, the scheduler state — shard bookkeeping and up to w
// idle goroutine stacks. The channel matrix is instead charged the p
// goroutine stacks each Run binds for its duration. This is the number
// the scaling harness budgets against (QueueBytes alone flatters a
// backend whose queues are small but whose runtime state is not), and a
// test pins it against the measured live heap. Transient run state —
// bodies parked mid-collective — is workload-dependent and not included.
func MachineBytes(cfg Config) int64 {
	p := int64(localP(cfg))
	peBytes := int64(unsafe.Sizeof(PE{})) + 8 // handle + slice slot
	b := QueueBytes(cfg) + p*peBytes
	if cfg.Backend != BackendChannelMatrix {
		return b + mailbox.StateBytes(localP(cfg), SchedWorkers(cfg))
	}
	const stackBytes = 8 << 10
	return b + p*stackBytes
}

// sink is the send seam: the per-destination delivery point Send, Post
// and Deliver hand messages to — the destination's mailbox.Box, its
// channel-matrix column, or the Remote.Forward hook for a non-local rank
// of a BackendWire machine.
type sink interface {
	Put(msg mailbox.Msg)
}

// intake is the receive seam: a PE's own incoming queue, demultiplexed
// by (source, context) key (mailbox.Key). Implemented by *mailbox.Box and
// the channel matrix's column. Only the PE's body takes from it;
// Interrupt (idempotent, any goroutine) makes blocked and later takes
// report ok = false until Reset, which also discards every queued
// message.
type intake interface {
	TryTakeKey(key uint64) (mailbox.Msg, bool)
	TakeKey(key uint64) (mailbox.Msg, bool)
	WaitAnyKeys(keys []uint64) (mailbox.Msg, bool)
	Interrupt()
	Reset()
}

// remoteSink adapts Remote.Forward to the sink of one non-local rank.
type remoteSink struct {
	dst     int
	forward func(dst int, msg mailbox.Msg)
}

func (r remoteSink) Put(msg mailbox.Msg) { r.forward(r.dst, msg) }

// Machine is a simulated cluster of PEs. Create one with NewMachine, run
// SPMD programs with Run, and read aggregate statistics with Stats.
type Machine struct {
	cfg Config
	pes []*PE
	// sinks[dst] is the delivery point for global rank dst (see sink),
	// shared by every PE's Send and by Post/Deliver.
	sinks []sink
	// lo is the first local rank (0 except on BackendWire, where the
	// machine owns only the Remote window and pes/boxes are indexed by
	// rank−lo).
	lo int

	// Pooled communication-context allocator (NewContext/ReleaseContext):
	// ids are never 0 (the default context) and are recycled so long
	// serving runs keep the per-PE per-context state bounded by the
	// front end's inflight limit rather than by query count.
	ctxMu   sync.Mutex
	ctxFree []Ctx
	ctxNext uint32

	// The driver. On Box machines, sched is the sharded scheduler (w
	// shards multiplexing the p PE bodies; goroutines spawn lazily and at
	// most w stay resident, torn down by Close or the finalizer), boxes
	// are the local intakes it arms for suspended continuation bodies,
	// and park is its WillPark hand-off. The matrix has no scheduler
	// (sched nil, park a no-op) and runs each rank on its own goroutine.
	// exec/execAsync are the per-rank run wrappers (one closure each per
	// machine, so steady-state Run and RunAsync dispatch allocate
	// nothing), and runBody/asyncStart the bodies they dispatch.
	sched      *mailbox.Sched
	boxes      []*mailbox.Box
	park       func(sidx int)
	exec       func(rank int) bool
	execAsync  func(rank int) bool
	runBody    func(pe *PE)
	asyncStart func(pe *PE) Stepper
	closeOnce  sync.Once

	// Aggregate statistics, folded in by the run wrapper when each body
	// completes (O(1) Stats instead of an O(p) scan).
	aggMu sync.Mutex
	agg   Stats

	// err is the current run's first failure. Setting it interrupts every
	// local intake under errMu, so "err set" and "intakes interrupted"
	// change together: finishRun consumes both, and an abort arriving
	// from a foreign goroutine (AbortExternal) lands wholly in one run.
	errMu sync.Mutex
	err   error
}

// NewMachine creates a machine with cfg.P PEs. It panics if cfg.P < 1.
func NewMachine(cfg Config) *Machine {
	if cfg.P < 1 {
		panic(fmt.Sprintf("comm: invalid PE count %d", cfg.P))
	}
	lo := 0
	if cfg.Backend == BackendWire {
		r := cfg.Remote
		if r == nil || r.Forward == nil || r.Lo < 0 || r.Hi <= r.Lo || r.Hi > cfg.P {
			panic("comm: BackendWire requires Config.Remote with a valid [Lo, Hi) window and Forward hook")
		}
		lo = r.Lo
	}
	nLocal := localP(cfg)
	m := &Machine{cfg: cfg, lo: lo, pes: make([]*PE, nLocal), sinks: make([]sink, cfg.P)}
	ins := make([]intake, nLocal)
	if cfg.Backend == BackendChannelMatrix {
		for i, c := range newChanMatrix(cfg.P) {
			ins[i], m.sinks[i] = c, c
		}
		m.park = func(int) {}
	} else {
		m.sched = mailbox.NewSched(nLocal, SchedWorkers(cfg))
		m.park = m.sched.WillPark
		// Suspended continuation bodies (RunAsync) are resumed through the
		// box notify → scheduler ready-queue path; all boxes share the one
		// Ready method value and differ only in rank.
		ready := m.sched.Ready
		m.boxes = make([]*mailbox.Box, nLocal)
		for i := range m.boxes {
			b := mailbox.New()
			b.SetNotify(i, ready)
			m.boxes[i], ins[i], m.sinks[lo+i] = b, b, b
		}
		for dst, s := range m.sinks {
			if s == nil {
				m.sinks[dst] = remoteSink{dst, cfg.Remote.Forward}
			}
		}
		m.execAsync = m.execAsyncRank
		// An idle scheduler goroutine references only the scheduler, never
		// the machine, so the finalizer fires once callers drop the machine
		// and releases the spare pool.
		runtime.SetFinalizer(m, (*Machine).shutdown)
	}
	m.exec = m.execRank
	for i := range m.pes {
		m.pes[i] = &PE{m: m, rank: lo + i, sidx: i, p: cfg.P, alpha: cfg.Alpha, beta: cfg.Beta, in: ins[i], sinks: m.sinks}
	}
	return m
}

// P returns the number of PEs.
func (m *Machine) P() int { return m.cfg.P }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Close releases the resident scheduler goroutines of a mailbox-backend
// machine. It is optional — an unreachable machine's scheduler is
// released by a finalizer — but deterministic teardown keeps harness
// measurements clean. The machine must not be used after Close. No-op on
// the channel matrix.
func (m *Machine) Close() {
	runtime.SetFinalizer(m, nil)
	m.shutdown()
}

func (m *Machine) shutdown() {
	m.closeOnce.Do(func() {
		if m.sched != nil {
			m.sched.Close()
		}
	})
}

// Workers returns the mailbox scheduler width w (0 on the channel
// matrix): the machine's resident goroutine budget.
func (m *Machine) Workers() int {
	if m.sched == nil {
		return 0
	}
	return m.sched.Workers()
}

// abortErr records the run's first error and releases every blocked or
// suspended local PE by interrupting its intake.
func (m *Machine) abortErr(err error) {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.err != nil {
		return // already aborted: every intake is interrupted
	}
	m.err = err
	for _, pe := range m.pes {
		pe.in.Interrupt()
	}
}

// abortedError is the panic value a receive raises once its intake is
// interrupted (another PE failed, or AbortExternal); it unwinds the SPMD
// body cleanly and is never recorded as the run's error.
type abortedError struct{}

func (abortedError) Error() string { return "comm: aborted because another PE failed" }

// Run executes body on every PE concurrently (SPMD) and blocks until all
// PEs return. If any PE panics, all PEs are unblocked and Run returns the
// first panic as an error. Run may be called repeatedly on the same
// machine; communication state must be drained (which it is whenever a
// run completes without error, since tags are checked).
//
// On the channel matrix, each Run spawns p goroutines. On Box machines
// the sharded scheduler multiplexes the p bodies over w shards:
// a Run whose bodies never block dispatches entirely on the resident
// goroutines and allocates nothing in steady state (pinned by a test);
// bodies that block in Recv park on their mailbox and transiently occupy
// a goroutine each until the run completes.
func (m *Machine) Run(body func(pe *PE)) error {
	m.runBody = body
	if m.sched != nil {
		m.sched.Run(m.exec)
	} else {
		runEach(len(m.pes), m.exec)
	}
	m.runBody = nil
	return m.finishRun()
}

// finishRun collects a run's first error and, on failure, restores the
// machine to a clean reusable state (shared by Run and RunAsync): the
// intakes may hold stale messages after an abort, and unwound PE bodies
// may have left posted receive handles behind. errMu is held throughout,
// so a concurrent AbortExternal either fails this run or the next one,
// never half of each.
func (m *Machine) finishRun() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	err := m.err
	if err != nil {
		m.err = nil
		for _, pe := range m.pes {
			pe.in.Reset()
			pe.resetAsync()
		}
	}
	return err
}

// execRank is the per-rank run wrapper for blocking bodies, shared by
// both drivers: dispatch the body, convert panics into machine aborts,
// and fold this PE's counter deltas into the aggregate. Created once per
// machine so Run stays allocation-free. Blocking bodies always complete
// within one exec call (they park goroutines instead of suspending), so
// it always reports done.
func (m *Machine) execRank(rank int) (done bool) {
	pe := m.pes[rank]
	defer func() {
		if r := recover(); r != nil {
			pe.resetAsync()
			done = true // the rank is finished (it failed); never suspended
			if _, ok := r.(abortedError); !ok {
				m.abortErr(fmt.Errorf("comm: PE %d panicked: %v\n%s", pe.rank, r, debug.Stack()))
			}
		}
		m.foldStats(pe)
	}()
	m.runBody(pe)
	return true
}

// foldStats folds pe's monotone counters into the machine aggregate.
// Deltas (for the totals) use per-PE shadows of the last folded values;
// the maxima need none because per-PE counters only grow between
// ResetStats calls.
func (m *Machine) foldStats(pe *PE) {
	m.aggMu.Lock()
	m.agg.TotalWords += pe.sentWords - pe.foldedSentWords
	m.agg.TotalSends += pe.sends - pe.foldedSends
	pe.foldedSentWords = pe.sentWords
	pe.foldedSends = pe.sends
	m.agg.MaxSentWords = max(m.agg.MaxSentWords, pe.sentWords)
	m.agg.MaxRecvWords = max(m.agg.MaxRecvWords, pe.recvWords)
	m.agg.MaxSends = max(m.agg.MaxSends, pe.sends)
	if pe.clock > m.agg.MaxClock {
		m.agg.MaxClock = pe.clock
	}
	m.aggMu.Unlock()
}

// Ctx is a communication context — the MPI-communicator-style tag that
// isolates concurrent operations sharing one machine. Every message
// carries its sender's current context, and receives match on
// (source, context) before the tag discipline applies, so collectives
// and selection steppers of different queries interleave on one
// scheduler without ever seeing each other's traffic. Context 0 is the
// default every PE starts in; nonzero contexts are leased from the
// machine's pooled allocator (NewContext/ReleaseContext).
type Ctx uint32

// NewContext leases a communication context from the machine's pool.
// Safe from any goroutine. Contexts are recycled by ReleaseContext;
// a context must not be released while any operation tagged with it is
// still in flight on any PE (the serving layer releases only after all
// p per-PE steppers of the context's operation have completed).
func (m *Machine) NewContext() Ctx {
	m.ctxMu.Lock()
	defer m.ctxMu.Unlock()
	if n := len(m.ctxFree); n > 0 {
		c := m.ctxFree[n-1]
		m.ctxFree = m.ctxFree[:n-1]
		return c
	}
	m.ctxNext++
	return Ctx(m.ctxNext)
}

// ReleaseContext returns a leased context to the pool. Safe from any
// goroutine. Reuse is safe because operations run SPMD over all PEs:
// every PE has retired the context's traffic (messages and collective
// tag state) before the next lease can reach it.
func (m *Machine) ReleaseContext(c Ctx) {
	if c == 0 {
		panic("comm: cannot release the default context")
	}
	m.ctxMu.Lock()
	m.ctxFree = append(m.ctxFree, c)
	m.ctxMu.Unlock()
}

// ExternalSrc is the reserved source rank of externally injected
// messages (Machine.Post): one past the last PE, so it can never
// collide with PE traffic.
func (m *Machine) ExternalSrc() int { return m.cfg.P }

// Post injects a message from outside the machine — the serving front
// end's doorbell: an admission goroutine that is not a PE hands work to
// the PEs mid-run. The message arrives at dst under (ExternalSrc, ctx)
// and is received like any other (IRecv(ExternalSrc, tag) with the PE's
// context set to ctx). It carries no sender-side meter (no PE paid a
// send); the receiver's Wait folds the usual α + βm receive cost with a
// zero depart stamp, so consuming a doorbell costs one startup of
// modeled time. Safe from any goroutine; never blocks on Box machines
// (the channel matrix's injection channel blocks while full, until the
// machine aborts).
func (m *Machine) Post(dst int, ctx Ctx, tag Tag, data any, words int64) {
	m.sinks[dst].Put(mailbox.Msg{Src: m.cfg.P, Ctx: uint32(ctx), Tag: uint64(tag), Words: words, Data: data})
}

// Deliver injects a transport-delivered message for local rank dst — the
// receive half of the BackendWire seam: the wire reader decodes a frame
// and hands its envelope here, after which keyed demux, IRecv binding and
// the metered receive rule proceed exactly as for an in-process send (the
// message carries the sender's depart stamp across the process boundary).
// dst must be a local rank. Safe from any goroutine.
func (m *Machine) Deliver(dst int, msg mailbox.Msg) {
	if dst < m.lo || dst >= m.lo+len(m.pes) {
		panic(fmt.Sprintf("comm: Deliver to non-local rank %d (local window [%d, %d))", dst, m.lo, m.lo+len(m.pes)))
	}
	m.sinks[dst].Put(msg)
}

// AbortExternal records err as the machine's failure and releases every
// blocked or suspended local PE, exactly as a local PE panic would — the
// wire transport's hook for propagating a remote process's death into a
// run in progress. Safe from any goroutine, during or between runs: the
// current (or, if it has already finished, the next) Run returns err and
// restores the machine to a clean state.
func (m *Machine) AbortExternal(err error) { m.abortErr(err) }

// LocalRanks returns the machine's local rank window [lo, hi): the full
// [0, P) except on BackendWire, where it is the Config.Remote window.
func (m *Machine) LocalRanks() (lo, hi int) { return m.lo, m.lo + len(m.pes) }

// MustRun is Run but panics on error. Intended for examples and benches.
func (m *Machine) MustRun(body func(pe *PE)) {
	if err := m.Run(body); err != nil {
		panic(err)
	}
}

// ResetStats zeroes all per-PE counters and virtual clocks. Call between
// measured phases. Must not be called while a Run is in progress. The
// collective tag sequence is deliberately left untouched — it is protocol
// state, not a statistic.
func (m *Machine) ResetStats() {
	for _, pe := range m.pes {
		pe.sentWords, pe.recvWords, pe.sends, pe.recvs = 0, 0, 0, 0
		pe.foldedSentWords, pe.foldedSends = 0, 0
		pe.clock = 0
		pe.waitNs = 0
	}
	m.aggMu.Lock()
	m.agg = Stats{}
	m.aggMu.Unlock()
}

// Stats aggregates communication counters across PEs after a Run.
type Stats struct {
	// TotalWords is the sum of all words sent.
	TotalWords int64
	// MaxSentWords / MaxRecvWords are the bottleneck communication volumes
	// (the paper's h: max over PEs of words sent resp. received).
	MaxSentWords int64
	MaxRecvWords int64
	// TotalSends is the total number of messages (startups paid somewhere).
	TotalSends int64
	// MaxSends is the bottleneck startup count (max over PEs of messages sent).
	MaxSends int64
	// MaxClock is the modeled α/β critical-path time (max PE virtual clock).
	MaxClock float64
}

// BottleneckWords is the paper's h: the maximum over PEs of words sent or
// received.
func (s Stats) BottleneckWords() int64 {
	return max(s.MaxSentWords, s.MaxRecvWords)
}

// Stats returns aggregate counters: the incrementally folded aggregate,
// in O(1). Only meaningful between Runs.
func (m *Machine) Stats() Stats {
	m.aggMu.Lock()
	defer m.aggMu.Unlock()
	return m.agg
}

// PE is one processing element's handle, valid only inside the goroutine
// Run started for it. All fields are goroutine-local; no synchronization
// is needed to update counters.
type PE struct {
	m    *Machine
	rank int
	// sidx is the scheduler-local index (rank − machine window lo): what
	// the mailbox scheduler and box-notify path know this PE as. Equal to
	// rank everywhere except BackendWire.
	sidx int
	p    int

	// alpha/beta are copied from the machine config so the Send/Recv hot
	// paths touch only this cache line, not the shared Machine.
	alpha float64
	beta  float64

	// in is this PE's own intake; sinks the machine-wide delivery points
	// indexed by destination (Machine.sinks, copied here for the Send hot
	// path).
	in    intake
	sinks []sink

	clock     float64
	sentWords int64
	recvWords int64
	sends     int64
	recvs     int64
	waitNs    int64

	// foldedSentWords/foldedSends shadow the last values folded into the
	// machine aggregate (incremental stats).
	foldedSentWords int64
	foldedSends     int64

	// ctx is the PE's current communication context: attached to every
	// send and matched by every receive posted while set. The serving
	// mux switches it per query slot (SetCtx); everything else runs in
	// the default context 0. collSeq is context 0's collective tag
	// sequence (the hot path); nonzero contexts draw from collSeqCtx,
	// one independent sequence per context so concurrently interleaved
	// queries each keep the SPMD tag discipline internally.
	ctx        uint32
	collSeq    uint64
	collSeqCtx map[uint32]uint64

	// keyBuf/hBuf are reusable buffers for multi-handle suspension
	// (MultiWaiter bodies): the pending handles of the current body and
	// their (src, ctx) arm keys.
	keyBuf []uint64
	hBuf   []*RecvHandle

	// Non-blocking receive state: the outstanding posted handles (FIFO,
	// doubly linked), the handle freelist (so Recv = IRecv+Wait allocates
	// nothing in steady state), and — under RunAsync — the PE's current
	// continuation body.
	outHead, outTail *RecvHandle
	freeH            *RecvHandle
	step             Stepper

	scratch map[scratchKey]any
	// pools holds the per-PE typed freelists of pooled stepper state
	// (see steppool.go). Like scratch, it is only touched by the
	// goroutine currently running this PE's body. Pools need no context
	// namespacing: concurrent queries pop distinct objects off the same
	// freelist, and released objects carry no query state.
	pools map[reflect.Type]any
}

// scratchKey namespaces the scratch store by the PE's communication
// context, so concurrently interleaved queries reusing the same named
// buffers (sel.KthStep's partition scratch, the collectives' hold
// buffers) never alias each other. Call sites keep their plain string
// keys; the context is attached here.
type scratchKey struct {
	ctx uint32
	key string
}

// Scratch returns the value stored under key in this PE's scratch store
// (scoped to the PE's current communication context), or nil. The store
// holds goroutine-local reusable state (typically buffers, see
// ScratchSlice) that survives across collective calls and Runs; it
// needs no synchronization because a PE handle is only valid inside its
// own goroutine.
func (pe *PE) Scratch(key string) any {
	return pe.scratch[scratchKey{pe.ctx, key}]
}

// SetScratch stores v under key in this PE's scratch store (scoped to
// the PE's current communication context).
func (pe *PE) SetScratch(key string, v any) {
	if pe.scratch == nil {
		pe.scratch = make(map[scratchKey]any)
	}
	pe.scratch[scratchKey{pe.ctx, key}] = v
}

// ScratchSlice returns a per-PE reusable buffer of length n for the given
// key, allocating or growing it only when the stored buffer is missing,
// of a different element type, or too small. Contents are unspecified.
// Callers own the buffer until their next ScratchSlice call with the same
// key — do not hold it across calls into code that may use the same key,
// and never send it (ownership cannot transfer off the PE). Buffers are
// scoped to the PE's current communication context, so interleaved
// queries cannot alias each other's scratch.
func ScratchSlice[T any](pe *PE, key string, n int) []T {
	if v, ok := pe.scratch[scratchKey{pe.ctx, key}]; ok {
		if b, ok := v.(*[]T); ok && cap(*b) >= n {
			*b = (*b)[:n]
			return *b
		}
	}
	b := make([]T, n)
	pe.SetScratch(key, &b)
	return b
}

// WaitTime returns how long this PE has been blocked waiting for
// messages. Harness code subtracts it from a phase's wall
// time to estimate pure local work.
func (pe *PE) WaitTime() time.Duration { return time.Duration(pe.waitNs) }

// Rank returns this PE's rank in 0..P-1.
func (pe *PE) Rank() int { return pe.rank }

// P returns the number of PEs.
func (pe *PE) P() int { return pe.p }

// Alpha returns the modeled startup cost.
func (pe *PE) Alpha() float64 { return pe.m.cfg.Alpha }

// Beta returns the modeled per-word cost.
func (pe *PE) Beta() float64 { return pe.m.cfg.Beta }

// Clock returns this PE's modeled communication-time clock.
func (pe *PE) Clock() float64 { return pe.clock }

// SentWords returns the number of machine words this PE has sent.
func (pe *PE) SentWords() int64 { return pe.sentWords }

// RecvWords returns the number of machine words this PE has received.
func (pe *PE) RecvWords() int64 { return pe.recvWords }

// Sends returns the number of messages this PE has sent.
func (pe *PE) Sends() int64 { return pe.sends }

// SetCtx switches the PE's current communication context: sends attach
// it, receives posted afterwards match on it, and the scratch store and
// collective tag sequence are scoped to it. The serving mux switches
// contexts between query slots; ordinary SPMD bodies stay in the
// default context 0. The context must be identical across PEs for the
// same logical operation (it replaces nothing of the SPMD discipline —
// it isolates whole operations from each other).
func (pe *PE) SetCtx(c Ctx) { pe.ctx = uint32(c) }

// CurCtx returns the PE's current communication context.
func (pe *PE) CurCtx() Ctx { return Ctx(pe.ctx) }

// ExternalSrc is the reserved source rank of externally injected
// messages (Machine.Post) — one past the last PE.
func (pe *PE) ExternalSrc() int { return pe.p }

// NextCollTag returns the next collective-operation tag. Every PE must call
// it the same number of times in the same order (SPMD discipline, per
// communication context — concurrent contexts hold independent
// sequences); the returned tags then agree across PEs without
// communication.
func (pe *PE) NextCollTag() Tag {
	if pe.ctx == 0 {
		pe.collSeq++
		return Tag(1<<32 | pe.collSeq)
	}
	if pe.collSeqCtx == nil {
		pe.collSeqCtx = make(map[uint32]uint64)
	}
	s := pe.collSeqCtx[pe.ctx] + 1
	pe.collSeqCtx[pe.ctx] = s
	return Tag(1<<32 | s)
}

// Send transmits data (words machine words) to PE dst with the given tag.
// The payload is passed by reference; the sender must not mutate it after
// sending (collectives in package coll copy where required). Send never
// blocks on Box machines; on the channel matrix it blocks while the
// destination's channel from this PE is full, and if the machine aborts
// meanwhile it drops the message and returns (the body unwinds at its
// next receive).
func (pe *PE) Send(dst int, tag Tag, data any, words int64) {
	if dst < 0 || dst >= pe.p {
		panic(fmt.Sprintf("comm: PE %d: send to invalid rank %d", pe.rank, dst))
	}
	if dst == pe.rank {
		panic(fmt.Sprintf("comm: PE %d: self-send is not modeled; keep data local", pe.rank))
	}
	pe.clock += pe.alpha + pe.beta*float64(words)
	pe.sentWords += words
	pe.sends++
	// The message carries the depart stamp, so the receiver's meter folds
	// identically whether the sink is a local intake or a transport hook.
	pe.sinks[dst].Put(mailbox.Msg{Src: pe.rank, Ctx: pe.ctx, Tag: uint64(tag), Words: words, Depart: pe.clock, Data: data})
}

// Recv receives the next message from PE src, which must carry the given
// tag. It returns the payload and its size in words. Recv is sugar for
// IRecv followed by Wait (literally — the handle comes from the per-PE
// pool, so the sugar allocates nothing): posting binds an
// already-delivered message eagerly, Wait parks only when the message
// has not arrived (handing the shard driver role off first on the
// mailbox backend), and the meter — the single-ported α+βm clock rule, a
// coordinator draining p−1 messages therefore paying Θ(p·(α+βm)) of
// modeled time — folds at Wait.
func (pe *PE) Recv(src int, tag Tag) (any, int64) {
	return pe.IRecv(src, tag).Wait()
}

// SendRecv sends to dst and receives from src in one full-duplex step
// (the common exchange pattern of recursive doubling), posting the
// receive before the send so the two transfers overlap — the handle-API
// form of the exchange. Sends never block on Box machines, and the
// buffered channels of the matrix make the exchange deadlock-free for
// any pairing.
func (pe *PE) SendRecv(dst int, sendData any, sendWords int64, src int, tag Tag) (any, int64) {
	h := pe.IRecv(src, tag)
	pe.Send(dst, tag, sendData, sendWords)
	return h.Wait()
}
