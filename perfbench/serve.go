package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"commtopk/internal/bpq"
	"commtopk/internal/comm"
	"commtopk/internal/qsel"
	"commtopk/internal/sel"
	"commtopk/internal/serve"
	"commtopk/internal/xrand"
)

// serve-mixed: an open loop into serve.NewServer with the default
// serve.Config over a p = 16 mailbox machine with resident shards of
// 2^14 unique uniform keys per PE. One generator goroutine sends on a
// fixed schedule: 80 % Kth(uniform rank) reads, 20 % DeleteMin(64)
// writes, at each rate of a fixed ladder. Latency runs from a request's
// due time to its result.
const (
	servP          = 16
	servPerPE      = 1 << 14
	servWriteK     = 64
	servWriteShare = 0.2
	// servLimit is the fixed p99 latency limit. A request also carries it
	// as its admission deadline: an answer later than this is not wanted.
	servLimit   = 50 * time.Millisecond
	servNominal = 125.0 // about half the capacity the ladder finds
	// servReplay is how many nominal-rate requests (at most) are replayed
	// standalone after the run, for the per-query model clock and
	// bottleneck volume and the served-vs-standalone meter check.
	servReplay = 200
)

// servLadder is the fixed ladder of offered rates (requests/s), from
// light load to past capacity. Never recalibrated.
var servLadder = []float64{25, 60, servNominal, 190, 250, 320, 400}

// servShare is each step's share of the measured seconds: the nominal
// step gets half, the others split the rest.
func servShare(rate float64) float64 {
	if rate == servNominal {
		return 0.5
	}
	return 0.5 / float64(len(servLadder)-1)
}

type servReq struct {
	step   int // ladder index; -1 for warm-up
	write  bool
	k      int64
	id     int64 // the server's query number (its RNG seed offset); 0 if none
	due    time.Time
	sub    time.Time // submit call entered
	ret    time.Time // submit call returned
	done   time.Time
	err    error
	res    uint64
	n      int64
	words  int64
	sends  int64
	wrong  bool
	pass   int // 0: the measured pass; 1: the traced pass of a traced run
	span   int
	waitID int
}

// latMs is the request's latency from its due time. A refused or wrong
// answer misses every limit: it counts as having waited the whole step.
func (r *servReq) latMs(step time.Duration) float64 {
	if r.err != nil || r.wrong {
		return ms(max(step, r.done.Sub(r.due)))
	}
	return ms(r.done.Sub(r.due))
}

type servState struct {
	shards [][]uint64
	sorted []uint64
	m      *comm.Machine
	srv    *serve.Server[uint64]
	nextID int64
	reqs   []*servReq // every request, in submission order
	wg     sync.WaitGroup
}

func (st *servState) close() {
	if st.srv != nil {
		st.srv.Close()
		st.srv = nil
	}
	if st.m != nil {
		st.m.Close()
		st.m = nil
	}
}

func servSetup(seed int64) (*servState, setupTimes, error) {
	var t setupTimes
	clk := time.Now()
	st := &servState{shards: make([][]uint64, servP)}
	for r := range st.shards {
		rng := xrand.NewPE(seed, r)
		sh := make([]uint64, servPerPE)
		for i := range sh {
			sh[i] = rng.Uint64()
		}
		st.shards[r] = sh
	}
	t.gen = since(&clk)
	st.sorted = slices.Concat(st.shards...)
	slices.Sort(st.sorted)
	for i := 1; i < len(st.sorted); i++ {
		if st.sorted[i] == st.sorted[i-1] {
			return nil, t, fmt.Errorf("seed %d: duplicate key %d (DeleteMin needs unique keys)", seed, st.sorted[i])
		}
	}
	t.oracle = since(&clk)
	st.m = comm.NewMachine(comm.MailboxConfig(servP))
	srv, err := serve.NewServer(st.m, st.shards, serve.Config{})
	if err != nil {
		st.close()
		return nil, t, err
	}
	st.srv = srv
	t.build = since(&clk)
	// Warm-up: the first DeleteMin materializes the resident queue; a
	// concurrent burst then warms the stepper pools and per-context
	// scratch at the default inflight depth.
	rng := xrand.New(seed ^ 0x5eed)
	warm := []*servReq{{write: true, k: servWriteK}, {k: 1 + rng.Int63n(int64(len(st.sorted)))}}
	for _, r := range warm {
		r.step = -1
		st.submit(r, nil)
		st.wg.Wait()
	}
	burst := make([]*servReq, 12)
	for i := range burst {
		burst[i] = &servReq{step: -1, write: i%6 == 5, k: servWriteK}
		if !burst[i].write {
			burst[i].k = 1 + rng.Int63n(int64(len(st.sorted)))
		}
		st.submit(burst[i], nil)
	}
	st.wg.Wait()
	for _, r := range append(warm, burst...) {
		if r.err != nil {
			st.close()
			return nil, t, fmt.Errorf("warm-up request failed: %w", r.err)
		}
	}
	t.warmup = since(&clk)
	return st, t, nil
}

// submit sends r (due now unless set) and starts its waiter.
func (st *servState) submit(r *servReq, tr *Tracer) {
	if r.due.IsZero() {
		r.due = time.Now()
	}
	deadline := time.Time{}
	if r.step >= 0 {
		deadline = r.due.Add(servLimit)
	}
	qid := len(st.reqs)
	st.reqs = append(st.reqs, r)
	r.span = tr.Begin("serve.request", -1, qid, -1)
	sid := tr.Begin("serve.submit", r.span, qid, -1)
	var tk *serve.Ticket[uint64]
	var err error
	r.sub = time.Now()
	if r.write {
		tk, err = st.srv.DeleteMinDeadline(r.k, deadline)
	} else {
		tk, err = st.srv.KthDeadline(r.k, deadline)
	}
	r.ret = time.Now()
	tr.End(sid)
	// Every submission past the deadline check draws a query number,
	// admitted or not (serve.Config.Seed: query i uses Seed+i).
	if err == nil || errors.Is(err, serve.ErrOverloaded) {
		st.nextID++
		r.id = st.nextID
	}
	if err != nil {
		r.err, r.done = err, r.ret
		tr.End(r.span)
		return
	}
	r.waitID = tr.Begin("serve.wait", r.span, qid, -1)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		v, err := tk.Wait()
		r.done = time.Now()
		tr.End(r.waitID)
		tr.End(r.span)
		r.res, r.err = v, err
		if err == nil {
			r.n = tk.BatchLen()
			r.words, r.sends = tk.Meters()
		}
	}()
}

// servSchedule derives the request stream of one ladder step from the
// seed: the same seed gives the same kinds and ranks, and a longer step
// extends the same prefix.
func servSchedule(seed int64, step int, n int, total int64) []*servReq {
	rng := xrand.NewPE(seed, 1000+step)
	reqs := make([]*servReq, n)
	for i := range reqs {
		r := &servReq{step: step, k: servWriteK}
		if rng.Float64() < servWriteShare {
			r.write = true
		} else {
			r.k = 1 + rng.Int63n(total)
		}
		reqs[i] = r
	}
	return reqs
}

// runStep offers one ladder step open-loop and waits for its answers.
func (st *servState) runStep(seed int64, step int, dur time.Duration, pass int, tr *Tracer) {
	rate := servLadder[step]
	n := max(1, int(rate*dur.Seconds()))
	reqs := servSchedule(seed, step, n, int64(len(st.sorted)))
	start := time.Now().Add(time.Millisecond)
	for i, r := range reqs {
		r.pass = pass
		r.due = start.Add(time.Duration(float64(i) / rate * 1e9))
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		st.submit(r, tr)
	}
	st.wg.Wait()
}

// verify checks every answer: reads against the sorted union, writes
// against a sequential queue that pops the admitted writes in
// submission order.
func (st *servState) verify(res *result) {
	popped := int64(0)
	total := int64(len(st.sorted))
	for i, r := range st.reqs {
		if r.err != nil {
			continue
		}
		if !r.write {
			if want := st.sorted[r.k-1]; r.res != want {
				r.wrong = true
				res.fail("serve-mixed request %d: Kth(%d) = %d, want %d", i, r.k, r.res, want)
			}
			continue
		}
		n := min(r.k, total-popped)
		var thr uint64
		if n > 0 {
			thr = st.sorted[popped+n-1]
		}
		popped += n
		if r.n != n || r.res != thr {
			r.wrong = true
			res.fail("serve-mixed request %d: DeleteMin(%d) = (%d, batch %d), want (%d, batch %d)", i, r.k, r.res, r.n, thr, n)
		}
	}
	if popped >= total {
		res.note("warning: the resident queue drained; shrink the run")
	}
}

// tailWindow is the number of consecutive nominal requests per window of
// query_tail_ms. Each window reports its highest percentile with at least
// ten samples beyond it (p90 for 100 to 199 samples), and the metric is
// the median over the windows: one stall, or a spell of load from other
// processes on the host, moves it much less than one tail over the whole
// step.
const tailWindow = 100

// windowTail returns the per-window tail label and the median over the
// windows of xs (in arrival order) of each window's tail.
func windowTail(xs []float64) (string, float64) {
	n := len(xs) / tailWindow
	if n < 2 {
		return tail(xs)
	}
	var name string
	var tails []float64
	for w := 0; w < n; w++ {
		var v float64
		name, v = tail(xs[w*len(xs)/n : (w+1)*len(xs)/n])
		tails = append(tails, v)
	}
	return name, median(tails)
}

// stepStats summarizes one ladder step of one pass.
type stepStats struct {
	rate                                   float64
	sent, ok, shedOvl, shedDl, errs, wrong int
	lat, readLat, writeLat, late           []float64
	submitUs, readWait, writeWait          []float64
	backlog                                int
	batchSum, batchReq                     int64
	dur                                    time.Duration
	goodput, p99                           float64
	meets                                  bool
}

func (st *servState) stepStats(step, pass int) *stepStats {
	s := &stepStats{rate: servLadder[step]}
	var reqs []*servReq
	for _, r := range st.reqs {
		if r.step == step && r.pass == pass {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return s
	}
	end := reqs[len(reqs)-1].due.Add(time.Duration(1e9 / s.rate))
	s.dur = end.Sub(reqs[0].due)
	good := 0
	for _, r := range reqs {
		s.sent++
		s.late = append(s.late, ms(r.sub.Sub(r.due)))
		l := r.latMs(s.dur)
		s.lat = append(s.lat, l)
		switch {
		case errors.Is(r.err, serve.ErrOverloaded):
			s.shedOvl++
		case errors.Is(r.err, serve.ErrDeadlineExpired):
			s.shedDl++
		case r.err != nil:
			s.errs++
		case r.wrong:
			s.wrong++
		default:
			s.ok++
			s.submitUs = append(s.submitUs, float64(r.ret.Sub(r.sub))/1e3)
			if r.write {
				s.writeLat = append(s.writeLat, l)
				s.writeWait = append(s.writeWait, ms(r.done.Sub(r.ret)))
				s.batchSum += r.n
				s.batchReq += r.k
			} else {
				s.readLat = append(s.readLat, l)
				s.readWait = append(s.readWait, ms(r.done.Sub(r.ret)))
			}
			if l <= ms(servLimit) {
				good++
			}
		}
		if r.err == nil && r.done.After(end) {
			s.backlog++
		}
	}
	// Goodput is per second of the step's real window: from the first
	// due time until the last answer arrived.
	last := reqs[len(reqs)-1].due
	for _, r := range reqs {
		if r.done.After(last) {
			last = r.done
		}
	}
	s.goodput = float64(good) / last.Sub(reqs[0].due).Seconds()
	s.p99 = quantile(s.lat, 0.99)
	failed := s.sent - s.ok
	s.meets = s.p99 <= ms(servLimit) && float64(failed) <= 0.01*float64(s.sent) &&
		float64(s.backlog) <= max(8, s.rate*servLimit.Seconds())
	return s
}

// replay re-runs, standalone on the server's machine after Close, every
// executed write up to the end of the replay window and every executed
// read inside it (the light step's reads and the first servReplay
// nominal requests of pass 0). It returns the standalone wall time of
// each replayed request and adds the model clock, bottleneck volume and
// meters of the window's requests to the result; served and standalone
// meters must agree exactly.
func (st *servState) replay(res *result, acc *runAcc, tr *Tracer) (map[*servReq]float64, error) {
	nominal := slices.Index(servLadder, servNominal)
	last, seen := -1, 0
	for i, r := range st.reqs {
		if r.pass == 0 && r.step == nominal && r.err == nil {
			seen++
			if seen == servReplay {
				last = i
				break
			}
		}
	}
	if last < 0 {
		if seen == 0 {
			return nil, fmt.Errorf("no nominal request succeeded")
		}
		last = len(st.reqs) - 1 // a short run replays all it has
	}
	m := st.m
	qs := make([]*bpq.Queue[uint64], servP)
	if _, err := acc.run(m, func(pe *comm.PE) {
		q := bpq.New[uint64](pe, 0) // serve.Config{} seeds the resident queue with 0
		q.InsertBulk(st.shards[pe.Rank()])
		qs[pe.Rank()] = q
	}); err != nil {
		return nil, err
	}
	wall := map[*servReq]float64{}
	// Per-kind sums of words, msgs, bottleneck words and clock, and counts.
	var sum [2][4]float64
	var cnt [2]float64
	for i, r := range st.reqs[:last+1] {
		inWindow := r.pass == 0 && r.step == nominal
		if r.err != nil || (!r.write && !inWindow && r.step != 0) {
			continue
		}
		m.ResetStats()
		name := "sel.kth"
		if r.write {
			name = "bpq.deletemin"
		}
		root := tr.Begin("replay."+name, -1, i, -1)
		d, err := acc.run(m, func(pe *comm.PE) {
			tr.peCall(name, root, i, pe, func() {
				if r.write {
					qs[pe.Rank()].DeleteMin(r.k)
				} else {
					sel.Kth(pe, st.shards[pe.Rank()], r.k, xrand.NewPE(r.id, pe.Rank()))
				}
			})
		})
		tr.End(root)
		if err != nil {
			return nil, err
		}
		wall[r] = ms(d)
		s := m.Stats()
		if s.TotalWords != r.words || s.TotalSends != r.sends {
			res.fail("nondeterminism: request %d served meters (%d words, %d msgs) != standalone (%d, %d)",
				i, r.words, r.sends, s.TotalWords, s.TotalSends)
		}
		if inWindow {
			kind := 0
			if r.write {
				kind = 1
			}
			cnt[kind]++
			for j, v := range []float64{float64(r.words), float64(r.sends), float64(s.BottleneckWords()), s.MaxClock} {
				sum[kind][j] += v
			}
			res.fingerprint = append(res.fingerprint, fmt.Sprintf("req %d write=%v k=%d words=%d msgs=%d h=%d clock=%g",
				i, r.write, r.k, r.words, r.sends, s.BottleneckWords(), s.MaxClock))
		}
	}
	// Weighted by the nominal mix, so the seed's draw of kinds inside the
	// window does not move the per-query figures. (A very short run may
	// hold only one kind; it then reports that kind.)
	weight := [2]float64{1 - servWriteShare, servWriteShare}
	for kind := range cnt {
		if cnt[kind] == 0 {
			weight[kind], weight[1-kind] = 0, 1
		}
	}
	for j, name := range []string{"words_per_query", "msgs_per_query", "bottleneck_words_per_pe", "model_clock"} {
		v := 0.0
		for kind := range cnt {
			if weight[kind] > 0 {
				v += weight[kind] * sum[kind][j] / cnt[kind]
			}
		}
		res.e2e[name] = v
	}
	res.fingerprint = append(res.fingerprint, fmt.Sprintf("window reads=%g writes=%g", cnt[0], cnt[1]))
	return wall, nil
}

func runServeMixed(cfg runCfg) (*result, error) {
	res := newResult()
	st, err := repeatSetup(res, func() (*servState, setupTimes, error) { return servSetup(cfg.seed) }, (*servState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	nominal := slices.Index(servLadder, servNominal)
	// A traced run measures a traced pass first (its light step feeds the
	// standalone replay), then an untraced pass of the same length; each
	// gets half the seconds.
	passes := []*Tracer{nil}
	scale := 1.0
	var tr *Tracer
	if cfg.trace {
		tr = newTracer()
		passes = []*Tracer{tr, nil}
		scale = 0.5
	}
	b0 := qsel.BucketSelects()
	for pass, ptr := range passes {
		for step, rate := range servLadder {
			dur := time.Duration(cfg.seconds * scale * servShare(rate) * float64(time.Second))
			st.runStep(cfg.seed, step, dur, pass, ptr)
		}
	}
	executed := 0
	for _, r := range st.reqs {
		if r.step >= 0 && r.err == nil {
			executed++
		}
	}
	bucketPerQuery := float64(qsel.BucketSelects()-b0) / float64(max(executed, 1))
	if err := st.srv.Close(); err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	st.srv = nil
	st.verify(res)

	// The measured pass: pass 0 untraced, or the untraced pass 1 of a
	// traced run.
	mp := 0
	if cfg.trace {
		mp = 1
	}
	res.note("%-6s %6s %6s %6s %8s %8s %6s %6s %9s %9s %8s %s", "rate", "sent", "ok", "failed", "shed_ovl", "shed_dl", "wrong", "errs", "p50_ms", "p99_ms", "backlog", "meets")
	maxRate := 0.0
	var nom *stepStats
	for pass := range passes {
		for step := range servLadder {
			s := st.stepStats(step, pass)
			res.note("%-6g %6d %6d %6d %8d %8d %6d %6d %9.3f %9.3f %8d %v  (pass %d)", s.rate, s.sent, s.ok, s.sent-s.ok,
				s.shedOvl, s.shedDl, s.wrong, s.errs, quantile(s.lat, 0.5), s.p99, s.backlog, s.meets, pass)
			if pass != mp {
				continue
			}
			if s.meets {
				maxRate = max(maxRate, s.rate)
			}
			if step == nominal {
				nom = s
			}
			// Offered load above the nominal rate probes capacity: refusals
			// there are the measured outcome (max_rate_qps). Failures at or
			// below the nominal rate, and wrong answers anywhere, count as
			// failed operations.
			res.attempted += s.sent
			if s.rate <= servNominal {
				res.failed += s.sent - s.ok
			} else {
				res.failed += s.wrong + s.errs
			}
		}
	}
	tailName, tailV := windowTail(nom.lat)
	res.e2e["query_p50_ms"] = median(nom.lat)
	res.e2e["query_tail_ms"] = tailV
	res.e2e["queries_per_s"] = nom.goodput
	res.e2e["read_p50_ms"] = median(nom.readLat)
	res.e2e["read_p99_ms"] = quantile(nom.readLat, 0.99)
	res.e2e["write_p50_ms"] = median(nom.writeLat)
	res.e2e["write_p99_ms"] = quantile(nom.writeLat, 0.99)
	res.e2e["goodput_qps"] = nom.goodput
	res.e2e["max_rate_qps"] = maxRate
	res.e2e["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	res.note("nominal %g/s: %d requests (%d reads, %d writes); query_tail_ms = median over %d windows of their %s; p99 limit %v",
		servNominal, nom.sent, len(nom.readLat), len(nom.writeLat), max(1, len(nom.lat)/tailWindow), tailName, servLimit)
	res.note("loadgen.late_ms max %.3f p99 %.3f (nominal step)", slices.Max(nom.late), quantile(nom.late, 0.99))

	acc := &runAcc{}
	wall, err := st.replay(res, acc, tr)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	// Per-layer split: traced pass (pass 0) against the standalone replay.
	tnom := st.stepStats(nominal, 0)
	var rServed, rAlone, wServed, wAlone []float64
	for _, r := range st.reqs {
		if r.step != 0 || r.pass != 0 || r.err != nil {
			continue
		}
		if w, ok := wall[r]; ok {
			if r.write {
				wServed, wAlone = append(wServed, ms(r.done.Sub(r.ret))), append(wAlone, w)
			} else {
				rServed, rAlone = append(rServed, ms(r.done.Sub(r.ret))), append(rAlone, w)
			}
		}
	}
	res.note("layer serve.submit_us %.3f us -> read_p99_ms", median(tnom.submitUs))
	res.note("layer serve.read_wait_ms %.3f ms -> read_p99_ms", median(tnom.readWait))
	res.note("layer serve.write_wait_ms %.3f ms -> write_p99_ms", median(tnom.writeWait))
	res.note("layer serve.read_overhead_ms %.3f ms -> read_p50_ms (light-step wait %.3f - standalone sel.Kth %.3f, %d reads)",
		median(rServed)-median(rAlone), median(rServed), median(rAlone), len(rAlone))
	res.note("layer serve.write_overhead_ms %.3f ms -> write_p50_ms (light-step wait %.3f - standalone DeleteMin %.3f, %d writes)",
		median(wServed)-median(wAlone), median(wServed), median(wAlone), len(wAlone))
	var shedO, shedD int
	for step := range servLadder {
		s := st.stepStats(step, 0)
		shedO += s.shedOvl
		shedD += s.shedDl
	}
	res.note("layer serve.shed_overloaded %d -> fail_ratio, max_rate_qps", shedO)
	res.note("layer serve.shed_deadline %d -> fail_ratio, max_rate_qps", shedD)
	res.note("layer serve.pq_batch_fill %.4f -> write_p50_ms", float64(tnom.batchSum)/float64(max(tnom.batchReq, 1)))
	res.note("layer loadgen.late_ms max %.3f p99 %.3f (validity check)", slices.Max(tnom.late), quantile(tnom.late, 0.99))
	_, ttail := windowTail(tnom.lat)
	res.note("e2e(traced) query_p50_ms %.4f ms, query_tail_ms %.4f ms; untraced %.4f and %.4f ms",
		median(tnom.lat), ttail, res.e2e["query_p50_ms"], res.e2e["query_tail_ms"])
	res.layer["trace.overhead_ms"] = median(tnom.lat) - res.e2e["query_p50_ms"]
	res.layer["qsel.bucket_calls_per_query"] = bucketPerQuery
	acc.report(res)
	if err := probeRuntime(res, servP, nil); err != nil {
		return nil, err
	}
	ones := make([][]float64, servP)
	for r := range ones {
		ones[r] = make([]float64, servPerPE)
		for i := range ones[r] {
			ones[r][i] = 1
		}
	}
	probeKernels(res, st.shards, st.shards, ones)
	res.spans = tr.Spans()
	return res, nil
}
