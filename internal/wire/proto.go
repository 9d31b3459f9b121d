package wire

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/mailbox"
)

// Protocol frames. Every frame body starts with a kind byte (see
// codec.go); this file defines the per-kind layouts. Data frames carry
// one machine message across the process boundary; control frames drive
// the rendezvous handshake and the per-run start/done/abort protocol.

// envHeaderLen is the fixed prefix of a data frame before the payload:
// kind, src, dst, ctx, tag, words, depart.
const envHeaderLen = 1 + 4 + 4 + 4 + 8 + 8 + 8

// appendEnvelope encodes one cross-process message. src == p encodes an
// external injection (Machine.Post), matching the in-process ExternalSrc
// convention. The depart stamp crosses as raw float64 bits so the
// receiver's clock rule folds bit-identically to a local delivery.
func appendEnvelope(b []byte, p int, dst int, msg mailbox.Msg) ([]byte, error) {
	e := Enc{b: b}
	e.U8(kData)
	e.U32(uint32(msg.Src))
	e.U32(uint32(dst))
	e.U32(msg.Ctx)
	e.U64(msg.Tag)
	e.U64(uint64(msg.Words))
	e.F64(msg.Depart)
	return appendPayload(e.Bytes(), msg.Data)
}

// envelopeDst peeks a data frame's destination rank without decoding the
// payload — the leader's relay path forwards the raw body untouched.
func envelopeDst(body []byte) (int, bool) {
	if len(body) < envHeaderLen || body[0] != kData {
		return 0, false
	}
	d := Dec{b: body, off: 5}
	return int(d.U32()), true
}

// decodeEnvelope decodes a data frame into a deliverable message. p is
// the machine size, used to validate the rank fields.
func decodeEnvelope(body []byte, p int) (dst int, msg mailbox.Msg, err error) {
	d := Dec{b: body}
	if d.U8() != kData {
		return 0, msg, fmt.Errorf("wire: not a data frame")
	}
	src := int(d.U32())
	dst = int(d.U32())
	msg.Src = src
	msg.Ctx = d.U32()
	msg.Tag = d.U64()
	msg.Words = int64(d.U64())
	msg.Depart = d.F64()
	if d.Err() != nil {
		return 0, msg, d.Err()
	}
	if src < 0 || src > p || dst < 0 || dst >= p || src == dst {
		return 0, msg, fmt.Errorf("wire: envelope ranks src=%d dst=%d out of range for p=%d", src, dst, p)
	}
	if msg.Words < 0 {
		return 0, msg, fmt.Errorf("wire: negative word count %d", msg.Words)
	}
	msg.Data, err = decodePayload(&d)
	if err != nil {
		return 0, msg, err
	}
	if d.Remaining() != 0 {
		return 0, msg, fmt.Errorf("wire: %d trailing bytes after payload", d.Remaining())
	}
	return dst, msg, nil
}

// hello is the worker's first frame: which group index it was launched
// as.
func appendHello(b []byte, index int) []byte {
	e := Enc{b: b}
	e.U8(kHello)
	e.U32(uint32(index))
	return e.Bytes()
}

func decodeHello(body []byte) (int, error) {
	d := Dec{b: body}
	if d.U8() != kHello {
		return 0, fmt.Errorf("wire: expected hello frame, got kind %d", body[0])
	}
	idx := int(d.U32())
	if d.Err() != nil {
		return 0, d.Err()
	}
	return idx, nil
}

// welcome carries everything a worker needs to build its local machine:
// the global machine shape, its own rank window, and the shared seed —
// the rendezvous rank-map exchange and seed distribution in one frame.
type welcome struct {
	P       int
	Procs   int
	Lo, Hi  int
	Alpha   float64
	Beta    float64
	Seed    int64
	Workers int
}

func appendWelcome(b []byte, w welcome) []byte {
	e := Enc{b: b}
	e.U8(kWelcome)
	e.U32(uint32(w.P))
	e.U32(uint32(w.Procs))
	e.U32(uint32(w.Lo))
	e.U32(uint32(w.Hi))
	e.F64(w.Alpha)
	e.F64(w.Beta)
	e.I64(w.Seed)
	e.U32(uint32(w.Workers))
	return e.Bytes()
}

func decodeWelcome(body []byte) (welcome, error) {
	d := Dec{b: body}
	var w welcome
	if d.U8() != kWelcome {
		return w, fmt.Errorf("wire: expected welcome frame, got kind %d", body[0])
	}
	w.P = int(d.U32())
	w.Procs = int(d.U32())
	w.Lo = int(d.U32())
	w.Hi = int(d.U32())
	w.Alpha = d.F64()
	w.Beta = d.F64()
	w.Seed = d.I64()
	w.Workers = int(d.U32())
	if d.Err() != nil {
		return w, d.Err()
	}
	if w.P < 1 || w.Lo < 0 || w.Hi <= w.Lo || w.Hi > w.P {
		return w, fmt.Errorf("wire: welcome window [%d, %d) invalid for p=%d", w.Lo, w.Hi, w.P)
	}
	return w, nil
}

// start launches one registered program run on a worker. Args are the
// run's parameter words; the program name resolves against the program
// registry (progs.go) in the worker process.
type startMsg struct {
	RunID uint64
	Prog  string
	Args  []uint64
}

func appendStart(b []byte, s startMsg) []byte {
	e := Enc{b: b}
	e.U8(kStart)
	e.U64(s.RunID)
	e.Str(s.Prog)
	e.U64(uint64(len(s.Args)))
	for _, a := range s.Args {
		e.U64(a)
	}
	return e.Bytes()
}

func decodeStart(body []byte) (startMsg, error) {
	d := Dec{b: body}
	var s startMsg
	if d.U8() != kStart {
		return s, fmt.Errorf("wire: expected start frame, got kind %d", body[0])
	}
	s.RunID = d.U64()
	s.Prog = d.Str()
	n := d.Len(8)
	if d.Err() == nil && n > 0 {
		s.Args = make([]uint64, n)
		for i := range s.Args {
			s.Args[i] = d.U64()
		}
	}
	return s, d.Err()
}

// done reports one worker's run completion: its local stats fold, its
// local ranks' result words, and the error (empty string: none). Results
// travel here, out of band, so the in-band data frames — and with them
// the meters — stay identical to the in-process backends.
type doneMsg struct {
	RunID   uint64
	Stats   comm.Stats
	Results []uint64
	Err     string
}

func appendDone(b []byte, m doneMsg) []byte {
	e := Enc{b: b}
	e.U8(kDone)
	e.U64(m.RunID)
	e.I64(m.Stats.TotalWords)
	e.I64(m.Stats.MaxSentWords)
	e.I64(m.Stats.MaxRecvWords)
	e.I64(m.Stats.TotalSends)
	e.I64(m.Stats.MaxSends)
	e.F64(m.Stats.MaxClock)
	e.U64(uint64(len(m.Results)))
	for _, r := range m.Results {
		e.U64(r)
	}
	e.Str(m.Err)
	return e.Bytes()
}

func decodeDone(body []byte) (doneMsg, error) {
	d := Dec{b: body}
	var m doneMsg
	if d.U8() != kDone {
		return m, fmt.Errorf("wire: expected done frame, got kind %d", body[0])
	}
	m.RunID = d.U64()
	m.Stats.TotalWords = d.I64()
	m.Stats.MaxSentWords = d.I64()
	m.Stats.MaxRecvWords = d.I64()
	m.Stats.TotalSends = d.I64()
	m.Stats.MaxSends = d.I64()
	m.Stats.MaxClock = d.F64()
	n := d.Len(8)
	if d.Err() == nil && n > 0 {
		m.Results = make([]uint64, n)
		for i := range m.Results {
			m.Results[i] = d.U64()
		}
	}
	m.Err = d.Str()
	return m, d.Err()
}

// abort tells a worker to unwind the identified run (stale aborts for
// already-finished runs are ignored by the worker).
func appendAbort(b []byte, runID uint64, msg string) []byte {
	e := Enc{b: b}
	e.U8(kAbort)
	e.U64(runID)
	e.Str(msg)
	return e.Bytes()
}

func decodeAbort(body []byte) (runID uint64, msg string, err error) {
	d := Dec{b: body}
	if d.U8() != kAbort {
		return 0, "", fmt.Errorf("wire: expected abort frame, got kind %d", body[0])
	}
	runID = d.U64()
	msg = d.Str()
	return runID, msg, d.Err()
}
