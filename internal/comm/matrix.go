package comm

import (
	"reflect"
	"sync"

	"commtopk/internal/mailbox"
)

// The channel-matrix reference transport (BackendChannelMatrix): one
// buffered channel per ordered PE pair, plus one injection channel per
// destination for Machine.Post, and one goroutine per PE for the
// duration of a run. It implements the same two seams as a mailbox.Box —
// the sink a sender Puts into and the intake a receiver takes from — so
// the PE core above it is shared, and it stays an independent oracle for
// the mailbox runtime: its queues, its demux and its driver are separate
// code. Queue memory is O(p²·chanCap), which caps it near p ≈ 512.

// chanCap is the capacity of each per-pair channel. A sender blocks only
// while its channel to one destination holds chanCap undelivered
// messages; SPMD exchanges stay deadlock-free for any capacity ≥ 1.
const chanCap = 64

// chanIntake is one destination's column of the matrix: col[src] carries
// the messages from src (src = p: Post injections). It is both the sink
// every sender Puts into and the intake its PE takes from.
type chanIntake struct {
	col []chan mailbox.Msg
	// stash parks messages taken off a source channel while looking for
	// a different context, per (src, ctx) key, until their own receive
	// comes looking. Stash order is arrival order, so per-key FIFO
	// survives the detour. Consumer only.
	stash map[uint64][]mailbox.Msg

	// down is closed by Interrupt (the machine abort) and replaced by
	// Reset; mu guards it against an Interrupt from a foreign goroutine.
	mu     sync.Mutex
	down   chan struct{}
	isDown bool
}

// newChanMatrix builds the p columns of a p-PE matrix.
func newChanMatrix(p int) []*chanIntake {
	cols := make([]*chanIntake, p)
	for dst := range cols {
		c := &chanIntake{col: make([]chan mailbox.Msg, p+1), down: make(chan struct{})}
		for src := range c.col {
			c.col[src] = make(chan mailbox.Msg, chanCap)
		}
		cols[dst] = c
	}
	return cols
}

// abortCh returns the channel the current run's abort closes.
func (c *chanIntake) abortCh() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Put sends msg on its sender's channel, blocking while that channel is
// full. If the machine aborts meanwhile, the message is dropped: the run
// has failed, and the sender unwinds at its next receive.
func (c *chanIntake) Put(msg mailbox.Msg) {
	ch := c.col[msg.Src]
	select {
	case ch <- msg:
	default:
		select {
		case ch <- msg:
		case <-c.abortCh():
		}
	}
}

// TryTakeKey removes the next message of key without blocking. Messages
// of other contexts met on the way are stashed (each moved once).
func (c *chanIntake) TryTakeKey(key uint64) (mailbox.Msg, bool) {
	if msg, ok := c.stashTake(key); ok {
		return msg, true
	}
	ch := c.col[mailbox.KeySrc(key)]
	for {
		select {
		case msg := <-ch:
			if msg.Ctx == mailbox.KeyCtx(key) {
				return msg, true
			}
			c.stashPut(msg)
		default:
			return mailbox.Msg{}, false
		}
	}
}

// TakeKey blocks for the next message of key, or reports false once the
// machine aborts.
func (c *chanIntake) TakeKey(key uint64) (mailbox.Msg, bool) {
	if msg, ok := c.stashTake(key); ok {
		return msg, true
	}
	ch, down := c.col[mailbox.KeySrc(key)], c.abortCh()
	for {
		select {
		case msg := <-ch:
			if msg.Ctx == mailbox.KeyCtx(key) {
				return msg, true
			}
			c.stashPut(msg)
		case <-down:
			return mailbox.Msg{}, false
		}
	}
}

// WaitAnyKeys blocks until a message of any of keys arrives and returns
// it, or reports false once the machine aborts. The distinct source
// channels are multiplexed through reflect.Select; allocation per park is
// acceptable for the small-p reference, never the serving engine.
func (c *chanIntake) WaitAnyKeys(keys []uint64) (mailbox.Msg, bool) {
	for _, k := range keys {
		if msg, ok := c.TryTakeKey(k); ok {
			return msg, true
		}
	}
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(c.abortCh())}}
	seen := map[int]bool{}
	for _, k := range keys {
		if src := mailbox.KeySrc(k); !seen[src] {
			seen[src] = true
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(c.col[src])})
		}
	}
	for {
		chosen, v, _ := reflect.Select(cases)
		if chosen == 0 {
			return mailbox.Msg{}, false
		}
		msg := v.Interface().(mailbox.Msg)
		key := mailbox.Key(msg.Src, msg.Ctx)
		for _, k := range keys {
			if k == key {
				return msg, true
			}
		}
		c.stashPut(msg)
	}
}

// Interrupt releases the column's blocked receiver and every sender
// blocked on it. Idempotent; safe from any goroutine.
func (c *chanIntake) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isDown {
		c.isDown = true
		close(c.down)
	}
}

// Reset discards every queued and stashed message and re-arms the abort.
// Called between runs.
func (c *chanIntake) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.col {
		for len(ch) > 0 {
			<-ch
		}
	}
	clear(c.stash)
	if c.isDown {
		c.isDown = false
		c.down = make(chan struct{})
	}
}

// stashPut parks msg under its own (src, ctx) key.
func (c *chanIntake) stashPut(msg mailbox.Msg) {
	if c.stash == nil {
		c.stash = make(map[uint64][]mailbox.Msg)
	}
	key := mailbox.Key(msg.Src, msg.Ctx)
	c.stash[key] = append(c.stash[key], msg)
}

// stashTake removes the oldest stashed message for key, if any.
func (c *chanIntake) stashTake(key uint64) (mailbox.Msg, bool) {
	q := c.stash[key]
	if len(q) == 0 {
		return mailbox.Msg{}, false
	}
	c.stash[key] = q[1:]
	return q[0], true
}

// runEach is the matrix's driver: every rank's exec on its own goroutine
// for the duration of the run. exec is the machine's shared run wrapper,
// which recovers panics and folds statistics exactly as under the
// mailbox scheduler.
func runEach(n int, exec func(rank int) bool) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			exec(i)
		}()
	}
	wg.Wait()
}
