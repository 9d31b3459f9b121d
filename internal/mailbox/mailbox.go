// Package mailbox is the scalable message runtime behind the simulated
// machine's mailbox backend (comm.BackendMailbox): per-receiver
// multi-producer/single-consumer mailboxes and the sharded worker
// scheduler (Sched) that multiplexes the p PE bodies over w ≪ p shards,
// so a resident machine holds O(w) goroutines rather than one per PE.
//
// The channel-matrix reference transport allocates a buffered channel per
// ordered PE pair — O(p²) queue memory — which caps simulated scale far below the
// paper's algorithmic limits (p = 1024 already needs ~67M message slots).
// A Box replaces a receiver's whole channel column with one intake list,
// so a p-PE machine needs exactly p boxes: O(p) queue memory up front,
// plus one pooled node per message actually in flight.
//
// Ordering contract: messages from one sender in one communication
// context are delivered to one receiver in send order (per-key FIFO,
// key = (sender, context)), exactly like the channel matrix. Messages
// under different keys may interleave arbitrarily — the receiver
// demultiplexes by asking for a specific key (TakeKey), and the metered
// communication paths of internal/comm stay deterministic because every
// receive names its source and context.
//
// Demux structure: producers append to a single intake FIFO (no map
// touch, so Put stays a pointer append under the lock). The consumer
// moves intake nodes into per-key sublists lazily, each node exactly
// once, so matching never rescans messages it already classified — a
// serving machine with many live contexts pays O(1) amortized per
// message instead of an O(pending) scan per receive. While no sublist
// holds anything (every single-context workload), consumer pops match
// the intake head directly and the demux layer costs nothing.
//
// Boxes never block the sender: intake is an unbounded linked list of
// nodes recycled through a sync.Pool, so the steady state allocates
// nothing and SPMD programs (whose in-flight volume is bounded by the
// protocol structure, not by backpressure) cannot deadlock on buffer
// capacity.
//
// A consumer that cannot afford to park a goroutine (a continuation-
// scheduled PE body, see comm.RunAsync) uses Arm instead of Take: Arm
// registers interest in a key — ArmKeys in any of several keys, for a
// body multiplexing independent queries — without blocking, and the
// next Put matching (or an Interrupt) fires the box's notify callback,
// which re-enqueues the suspended body on the scheduler's ready queue.
package mailbox

import "sync"

// Msg is one in-flight message, and the only message type of the
// substrate: internal/comm meters it and every transport (Box, channel
// matrix, wire frames) carries it. Depart is the sender's virtual clock
// after the send; Data is the payload reference handed to the receiver.
type Msg struct {
	Src    int
	Ctx    uint32
	Tag    uint64
	Words  int64
	Depart float64
	Data   any
}

// Key packs a (sender rank, communication context) pair into the uint64
// the Box demultiplexes on. Context 0 keys equal the bare sender rank,
// so single-context programs (and the pre-context call sites) read
// unchanged.
func Key(src int, ctx uint32) uint64 { return uint64(ctx)<<32 | uint64(uint32(src)) }

// KeySrc extracts the sender rank of a key.
func KeySrc(key uint64) int { return int(uint32(key)) }

// KeyCtx extracts the communication context of a key.
func KeyCtx(key uint64) uint32 { return uint32(key >> 32) }

// node is an intake-list cell, recycled through nodePool. key caches
// Key(msg.Src, msg.Ctx) so demux never recomputes it.
type node struct {
	msg  Msg
	key  uint64
	next *node
}

var nodePool = sync.Pool{New: func() any { return new(node) }}

// subq is one key's demuxed FIFO. Sub-queues are created on the first
// out-of-order message for their key and then kept in the map even when
// empty, so a steady-state serving loop allocates nothing per message.
type subq struct{ head, tail *node }

// Box is a per-receiver mailbox: any number of senders Put concurrently,
// exactly one consumer goroutine at a time Takes (or Arms). The zero
// value is not ready; use New.
type Box struct {
	mu   sync.Mutex
	cond sync.Cond
	// Intake is a singly linked FIFO over all senders and contexts;
	// per-key order is the sublist order, preserved because each sender
	// appends its own messages sequentially and the demux below moves
	// nodes out in intake order.
	head, tail *node
	// subs holds the per-key sublists the consumer has demuxed so far;
	// subN counts the messages currently in them (0 means every queued
	// message still sits in intake order, enabling the head fast path).
	subs map[uint64]*subq
	subN int
	// waitKeys are the keys the consumer is currently blocked on (nil:
	// not blocked). Producers signal only when they deliver for one of
	// them, so unrelated traffic does not wake the consumer. waitBuf
	// backs the common single-key wait without allocating.
	waitKeys    []uint64
	waitBuf     [1]uint64
	interrupted bool
	// armed are the keys a suspended (continuation-scheduled) consumer
	// registered interest in via Arm/ArmKeys (nil: not armed). The Put
	// that delivers for any of them — or an Interrupt — disarms all and
	// fires notify once. armBuf backs the single-key Arm.
	armed      []uint64
	armBuf     [1]uint64
	notify     func(rank int)
	notifyRank int
}

// New returns an empty Box.
func New() *Box {
	b := &Box{}
	b.cond.L = &b.mu
	return b
}

// SetNotify installs the resume callback Arm relies on: fn(rank) is
// invoked (outside the box lock) when an armed box receives a matching
// message or is interrupted. One callback per box, set before any Arm;
// typically all boxes of a machine share one fn (the scheduler's Ready)
// and differ only in rank.
func (b *Box) SetNotify(rank int, fn func(rank int)) {
	b.notifyRank, b.notify = rank, fn
}

// keysContain reports whether keys holds key. Wait/arm sets are one or
// a handful of entries (a body waits on one handle, a serving mux on a
// few pending queries), so a linear scan beats any structure.
func keysContain(keys []uint64, key uint64) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// Put appends m to the intake. It never blocks and is safe to call from
// any goroutine.
func (b *Box) Put(m Msg) {
	n := nodePool.Get().(*node)
	n.msg = m
	n.key = Key(m.Src, m.Ctx)
	n.next = nil
	b.mu.Lock()
	if b.tail == nil {
		b.head = n
	} else {
		b.tail.next = n
	}
	b.tail = n
	wake := keysContain(b.waitKeys, n.key)
	fire := keysContain(b.armed, n.key)
	if fire {
		b.armed = nil
	}
	b.mu.Unlock()
	if wake {
		b.cond.Signal()
	}
	if fire {
		b.notify(b.notifyRank)
	}
}

// demux moves every intake node into its key's sublist, each node
// exactly once. Caller holds b.mu.
func (b *Box) demux() {
	for n := b.head; n != nil; {
		next := n.next
		q := b.subs[n.key]
		if q == nil {
			if b.subs == nil {
				b.subs = make(map[uint64]*subq)
			}
			q = &subq{}
			b.subs[n.key] = q
		}
		n.next = nil
		if q.tail == nil {
			q.head = n
		} else {
			q.tail.next = n
		}
		q.tail = n
		b.subN++
		n = next
	}
	b.head, b.tail = nil, nil
}

// popKey unlinks the oldest message for key. Caller holds b.mu. While
// the sublists are empty the intake head is matched directly — the
// single-context fast path; otherwise intake is demuxed (each node
// moved once, amortized O(1)) and the pop is a sublist head unlink.
func (b *Box) popKey(key uint64) *node {
	if b.subN == 0 {
		n := b.head
		if n == nil {
			return nil
		}
		if n.key == key {
			b.head = n.next
			if b.head == nil {
				b.tail = nil
			}
			n.next = nil
			return n
		}
	}
	b.demux()
	q := b.subs[key]
	if q == nil || q.head == nil {
		return nil
	}
	n := q.head
	q.head = n.next
	if q.head == nil {
		q.tail = nil
	}
	n.next = nil
	b.subN--
	return n
}

// hasKey reports whether a message for key is queued. Caller holds b.mu.
func (b *Box) hasKey(key uint64) bool {
	if b.subN == 0 && b.head != nil && b.head.key == key {
		return true
	}
	b.demux()
	q := b.subs[key]
	return q != nil && q.head != nil
}

// TryTake removes and returns the oldest queued message from src in
// context 0 without blocking. Consumer only.
func (b *Box) TryTake(src int) (Msg, bool) { return b.TryTakeKey(Key(src, 0)) }

// TryTakeKey removes and returns the oldest queued message for key
// without blocking. Consumer only.
func (b *Box) TryTakeKey(key uint64) (Msg, bool) {
	b.mu.Lock()
	n := b.popKey(key)
	b.mu.Unlock()
	if n == nil {
		return Msg{}, false
	}
	return release(n), true
}

// Take blocks until a message from src in context 0 is available
// (ok = true) or the box is interrupted (ok = false). Consumer only.
func (b *Box) Take(src int) (Msg, bool) { return b.TakeKey(Key(src, 0)) }

// TakeKey blocks until a message for key is available (ok = true) or the
// box is interrupted (ok = false). Consumer only.
func (b *Box) TakeKey(key uint64) (Msg, bool) {
	b.mu.Lock()
	for {
		if n := b.popKey(key); n != nil {
			b.mu.Unlock()
			return release(n), true
		}
		if b.interrupted {
			b.mu.Unlock()
			return Msg{}, false
		}
		b.waitBuf[0] = key
		b.waitKeys = b.waitBuf[:1]
		b.cond.Wait()
		b.waitKeys = nil
	}
}

// WaitAnyKeys blocks until a message for any of keys is available and
// removes and returns the oldest such message (scanning keys in order),
// or reports ok = false on interrupt. Consumer only. The keys slice is
// read only during the call.
func (b *Box) WaitAnyKeys(keys []uint64) (Msg, bool) {
	b.mu.Lock()
	for {
		for _, k := range keys {
			if n := b.popKey(k); n != nil {
				b.mu.Unlock()
				return release(n), true
			}
		}
		if b.interrupted {
			b.mu.Unlock()
			return Msg{}, false
		}
		b.waitKeys = keys
		b.cond.Wait()
		b.waitKeys = nil
	}
}

// Arm registers interest in the next message from src in context 0
// without blocking: if one is already queued (or the box is interrupted)
// Arm reports false and the consumer proceeds synchronously; otherwise
// the box is armed and Arm reports true — the consumer must then
// suspend, and the notify callback will fire exactly once when a
// matching message arrives or the box is interrupted. Consumer only; at
// most one armed key set at a time.
func (b *Box) Arm(src int) bool { return b.ArmKey(Key(src, 0)) }

// ArmKey is Arm for an explicit (src, ctx) key.
func (b *Box) ArmKey(key uint64) bool {
	b.mu.Lock()
	if b.interrupted || b.hasKey(key) {
		b.mu.Unlock()
		return false
	}
	b.armBuf[0] = key
	b.armed = b.armBuf[:1]
	b.mu.Unlock()
	return true
}

// ArmKeys arms the box on several keys at once — the multiplexing form
// for a body with multiple suspended queries: if a message for any key
// is already queued (or the box is interrupted) it reports false;
// otherwise the first matching Put disarms every key and fires notify
// exactly once. The caller must not mutate keys until the box fires or
// is reset — the box retains the slice, so callers reuse a per-rank
// buffer rebuilt on every suspension.
func (b *Box) ArmKeys(keys []uint64) bool {
	b.mu.Lock()
	if b.interrupted {
		b.mu.Unlock()
		return false
	}
	for _, k := range keys {
		if b.hasKey(k) {
			b.mu.Unlock()
			return false
		}
	}
	b.armed = keys
	b.mu.Unlock()
	return true
}

// Interrupted reports whether the box is in the interrupted state (the
// machine abort path). A suspended consumer whose Arm was refused checks
// it to distinguish "message ready" from "machine aborting".
func (b *Box) Interrupted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.interrupted
}

// release extracts the message and recycles the node, dropping the
// payload reference so the pool does not retain it.
func release(n *node) Msg {
	m := n.msg
	n.msg = Msg{}
	nodePool.Put(n)
	return m
}

// Interrupt wakes a blocked consumer and fires the notify callback of an
// armed one; subsequent and in-progress Takes return ok = false until
// Reset. Used by the machine abort path.
func (b *Box) Interrupt() {
	b.mu.Lock()
	b.interrupted = true
	fire := len(b.armed) > 0
	b.armed = nil
	b.mu.Unlock()
	b.cond.Broadcast()
	if fire {
		b.notify(b.notifyRank)
	}
}

// Reset discards all queued messages and clears the interrupt and armed
// flags. The demuxed sub-queues are kept (empty) so steady-state reuse
// allocates nothing. Must not race with Put, Take or Arm (the machine
// calls it between runs).
func (b *Box) Reset() {
	b.mu.Lock()
	n := b.head
	b.head, b.tail = nil, nil
	for _, q := range b.subs {
		for m := q.head; m != nil; {
			next := m.next
			m.msg = Msg{}
			m.next = nil
			nodePool.Put(m)
			m = next
		}
		q.head, q.tail = nil, nil
	}
	b.subN = 0
	b.interrupted = false
	b.armed = nil
	b.mu.Unlock()
	for n != nil {
		next := n.next
		n.msg = Msg{}
		n.next = nil
		nodePool.Put(n)
		n = next
	}
}

// Pending returns the number of queued messages (diagnostics and tests).
func (b *Box) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.subN
	for n := b.head; n != nil; n = n.next {
		c++
	}
	return c
}
