package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"commtopk/internal/comm"
)

// Span is one traced call into a layer, recorded by the benchmark around
// the public function it calls. PE-scoped spans (PE >= 0) also carry the
// deltas of that PE's meters across the call.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Query  int     `json:"query"`
	Name   string  `json:"name"`
	PE     int     `json:"pe"`
	Start  int64   `json:"start_ns"` // since the tracer started
	End    int64   `json:"end_ns"`
	WaitNs int64   `json:"wait_ns,omitempty"`
	Words  int64   `json:"words,omitempty"`
	Msgs   int64   `json:"msgs,omitempty"`
	Clock  float64 `json:"clock,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out once, at the end.
// A nil Tracer records nothing and costs one branch per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (-1 when tracing is off).
func (t *Tracer) Begin(name string, parent, query, pe int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Query: query, Name: name, PE: pe, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// peMeters is a snapshot of one PE's meters.
type peMeters struct {
	wait         time.Duration
	words, sends int64
	clock        float64
}

func snap(pe *comm.PE) peMeters {
	return peMeters{pe.WaitTime(), pe.SentWords(), pe.Sends(), pe.Clock()}
}

// EndPE closes a PE-scoped span with the PE's meter deltas since m0.
func (t *Tracer) EndPE(id int, pe *comm.PE, m0 peMeters) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	m1 := snap(pe)
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	s.WaitNs = int64(m1.wait - m0.wait)
	s.Words = m1.words - m0.words
	s.Msgs = m1.sends - m0.sends
	s.Clock = m1.clock - m0.clock
	t.mu.Unlock()
}

// peCall runs f as a PE-scoped span named name under parent.
func (t *Tracer) peCall(name string, parent, query int, pe *comm.PE, f func()) {
	if t == nil {
		f()
		return
	}
	m0 := snap(pe)
	id := t.Begin(name, parent, query, pe.Rank())
	f()
	t.EndPE(id, pe, m0)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (children may overlap, e.g.
// the p PE spans of one collective call; the covered part is their
// union, clipped to the parent).
func selfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the child intervals inside s.
func covered(s Span, spans []Span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, end int64 = 0, s.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// writeSpans writes the spans with their self times as JSON.
func writeSpans(path string, spans []Span) error {
	self := selfTimes(spans)
	type row struct {
		Span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// byName groups completed spans by name.
func byName(spans []Span) map[string][]Span {
	out := map[string][]Span{}
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}
