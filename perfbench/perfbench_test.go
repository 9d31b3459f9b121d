package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"commtopk/internal/dht"
	"commtopk/internal/freq"
	"commtopk/internal/wire"
)

func TestMain(m *testing.M) {
	wire.MaybeWorker()
	os.Exit(m.Run())
}

// Self time plus the union of the children must give the parent span,
// with overlapping (PE-parallel) and sequential children alike.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 3, Start: 62, End: 66},
		{ID: 5, Parent: -1, Start: 200, End: 260},
		{ID: 6, Parent: 5, Start: 200, End: 230}, // sequential children
		{ID: 7, Parent: 5, Start: 230, End: 260},
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 30, 6, 4, 0, 30, 30}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	kids := map[int][]int{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for _, s := range spans {
		if got := self[s.ID] + covered(s, spans, kids[s.ID]); got != s.dur() {
			t.Errorf("span %d: self %d + children %d != duration %d", s.ID, self[s.ID], got-self[s.ID], s.dur())
		}
	}
	// Sequential children: self plus the plain sum of the children.
	if self[5]+spans[6].dur()+spans[7].dur() != spans[5].dur() {
		t.Errorf("sequential children do not add up to their parent")
	}
}

// A tracer records spans around PE calls and its recorded spans nest.
func TestTracerNests(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("q", -1, 7, -1)
	child := tr.Begin("c", root, 7, 0)
	tr.End(child)
	tr.End(root)
	sp := tr.Spans()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[0].End < sp[1].End || sp[1].Query != 7 {
		t.Fatalf("bad spans %+v", sp)
	}
	var off *Tracer
	if id := off.Begin("x", -1, 0, -1); id != -1 {
		t.Fatalf("nil tracer recorded a span")
	}
}

// Injected wrong answers are caught by the serve-mixed oracles.
func TestServeOracleCatchesWrongAnswers(t *testing.T) {
	st := &servState{sorted: []uint64{10, 20, 30, 40, 50, 60, 70, 80}}
	good := func() []*servReq {
		return []*servReq{
			{k: 3, res: 30},
			{write: true, k: 2, res: 20, n: 2},
			{k: 8, res: 80},
			{write: true, k: 5, res: 70, n: 5},
			{write: true, k: 4, res: 80, n: 1}, // the queue holds one element
		}
	}
	st.reqs = good()
	res := newResult()
	st.verify(res)
	if res.wrong != 0 {
		t.Fatalf("correct answers flagged: %v", res.problems)
	}
	for i, mutate := range []func([]*servReq){
		func(r []*servReq) { r[0].res = 31 },
		func(r []*servReq) { r[1].res = 10 },
		func(r []*servReq) { r[3].n = 4 },
		func(r []*servReq) { r[4].n = 4 },
	} {
		st.reqs = good()
		mutate(st.reqs)
		res := newResult()
		st.verify(res)
		if res.wrong == 0 {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// Injected wrong answers are caught by the batch-deep oracles.
func TestBatchOracleCatchesWrongAnswers(t *testing.T) {
	st := &batchState{
		sel:   [][]uint64{{5, 3, 3, 9}, {1, 3, 7, 7}},
		keys:  [][]uint64{{1, 1, 2}, {1, 3, 2}},
		vals:  [][]float64{{1, 2, 3}, {4, 5, 6}},
		total: 8,
	}
	st.buildOracles()
	// Sorted: 1 3 3 3 5 7 7 9.
	kth := batchQuery{kind: kindKth, k: 4}
	if msg := st.check(kth, batchOut{kth: 3}); msg != "" {
		t.Fatalf("correct Kth flagged: %s", msg)
	}
	if st.check(kth, batchOut{kth: 5}) == "" {
		t.Errorf("wrong Kth not caught")
	}
	sk := batchQuery{kind: kindSmallestK, k: 3} // {1, 3, 3}
	cases := []struct {
		parts [][]uint64
		ok    bool
	}{
		{[][]uint64{{1, 3}, {3}}, true},
		{[][]uint64{{1, 3, 3}, {}}, false}, // unbalanced: ceil(3/2) = 2
		{[][]uint64{{3, 3}, {3}}, false},   // 1 replaced by a third 3
		{[][]uint64{{1, 5}, {3}}, false},   // element above the threshold
		{[][]uint64{{1}, {3}}, false},      // missing element
	}
	for i, c := range cases {
		if got := st.check(sk, batchOut{parts: c.parts}) == ""; got != c.ok {
			t.Errorf("SmallestK case %d: accepted=%v, want %v", i, got, c.ok)
		}
	}
	// Counting checks: an estimate off by more than ε·n is caught.
	items := make([]dht.KV, batchTopK)
	for i := range items {
		items[i] = dht.KV{Key: uint64(i + 1), Count: st.exact[i+1]}
	}
	fq := batchQuery{kind: kindFreq}
	if msg := st.check(fq, batchOut{fres: freq.Result{Items: items}}); msg != "" {
		t.Fatalf("exact counts flagged: %s", msg)
	}
	items[0].Count += 1000
	if st.check(fq, batchOut{fres: freq.Result{Items: items}}) == "" {
		t.Errorf("count error beyond the bound not caught")
	}
	if st.check(fq, batchOut{fres: freq.Result{Items: items[:3]}}) == "" {
		t.Errorf("short item list not caught")
	}
}

// A wire result that differs from its twin is caught.
func TestWireTwinMismatchCaught(t *testing.T) {
	st := &wireState{cfg: wire.Config{P: 4, Procs: 1, Seed: 3}}
	q := wireQuery{prog: "kth", args: []uint64{5, 64, 100}}
	var err error
	if q.res, q.stats, err = wire.RunLocal(st.cfg, q.prog, q.args); err != nil {
		t.Fatal(err)
	}
	if st.c, err = wire.Spawn(st.cfg); err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if msg, err := st.runOne(q); err != nil || msg != "" {
		t.Fatalf("equal run flagged: %v %s", err, msg)
	}
	q.res = slices.Clone(q.res)
	q.res[1]++
	if msg, err := st.runOne(q); err != nil || msg == "" {
		t.Fatalf("wrong result not caught: %v %q", err, msg)
	}
}

// A short run prints every named metric and a contract JSON line, and
// a traced run every per-layer metric.
func TestSmokeServeMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes seconds")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "serve-mixed", "--seed", "3", "--seconds", "1.5", "--trace", trace,
			"--state-dir", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var j struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &j); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		defs := e2eDefs
		if trace == "1" {
			defs = layerDefs
		}
		if !j.Correct || j.Attempted < 1 || len(j.Metrics) != len(defs) {
			t.Fatalf("bad result line %s", lines[len(lines)-1])
		}
		for _, d := range defs {
			if m, ok := j.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s missing or with a wrong unit", d.name)
			}
		}
		for _, d := range append(slices.Clone(e2eDefs), reportOnlyDefs...) {
			if !strings.Contains(out.String(), " "+d.name+" ") {
				t.Errorf("report lacks %s", d.name)
			}
		}
		if trace == "1" {
			for _, name := range []string{"serve.submit_us", "serve.read_wait_ms", "serve.write_wait_ms", "serve.read_overhead_ms",
				"serve.write_overhead_ms", "serve.shed_overloaded", "serve.shed_deadline", "serve.pq_batch_fill", "loadgen.late_ms"} {
				if !strings.Contains(out.String(), name) {
					t.Errorf("traced report lacks %s", name)
				}
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the JSON line carries.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var j struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{j.EndToEnd, e2eDefs}, {j.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], the benchmark reports %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
