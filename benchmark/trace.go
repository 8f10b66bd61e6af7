package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/ring"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// Spans are recorded from outside the program: the harness hands the driver
// its own transport.Sender and gives the TCP node its own transport.Handler,
// so it sees the instant a request leaves the client layer and the instant
// its response comes back, without a line of the store changing.
//
//	op                      due ............................... callback
//	  loadgen.wait          due .. issue          (how late the generator ran)
//	  client.issue                issue .. Send   (Driver.Read/Write → Sender.Send)
//	  transport.reply                      Send .......... Deliver
//	  client.complete                                      Deliver .. callback

// span is one line of a trace file.
type span struct {
	Op     uint64
	Name   string
	Parent string
	Start  int64 // ns since the tracer started
	End    int64
}

// opTrace is the in-flight record of one traced operation.
type opTrace struct {
	id                     uint64
	due, start, sent, recv time.Time
}

// tracer belongs to one endpoint and is touched only on its runtime.
type tracer struct {
	t0     time.Time
	nextID uint64
	cur    *opTrace            // the operation being issued right now
	byWire map[uint64]*opTrace // wire request id → operation
	spans  []span

	issueNs, completeNs []int64    // span durations, for percentiles
	replyNs             [2][]int64 // [read|write]: the hop estimate wants reads alone
}

func newTracer(t0 time.Time, id uint64) *tracer {
	return &tracer{t0: t0, nextID: id << 40, byWire: make(map[uint64]*opTrace)}
}

// begin opens an operation; the Sender interposer attaches the wire id while
// cur is set. All tracer methods accept a nil receiver (tracing off).
func (t *tracer) begin(due, start time.Time) *opTrace {
	if t == nil {
		return nil
	}
	t.nextID++
	t.cur = &opTrace{id: t.nextID, due: due, start: start}
	return t.cur
}

func (t *tracer) issued() {
	if t != nil {
		t.cur = nil
	}
}

func (t *tracer) end(op *opTrace, now time.Time, kind int) {
	if t == nil || op == nil || op.sent.IsZero() || op.recv.IsZero() {
		return // never sent, or completed by a timeout: no reply to attribute
	}
	rel := func(x time.Time) int64 { return int64(x.Sub(t.t0)) }
	t.spans = append(t.spans,
		span{op.id, "op", "", rel(op.due), rel(now)},
		span{op.id, "loadgen.wait", "op", rel(op.due), rel(op.start)},
		span{op.id, "client.issue", "op", rel(op.start), rel(op.sent)},
		span{op.id, "transport.reply", "op", rel(op.sent), rel(op.recv)},
		span{op.id, "client.complete", "op", rel(op.recv), rel(now)},
	)
	t.issueNs = append(t.issueNs, int64(op.sent.Sub(op.start)))
	t.replyNs[kind] = append(t.replyNs[kind], int64(op.recv.Sub(op.sent)))
	t.completeNs = append(t.completeNs, int64(now.Sub(op.recv)))
}

// tracingSender stamps the moment the client layer hands a request to the
// transport.
type tracingSender struct {
	inner transport.Sender
	tr    *tracer
}

func (s tracingSender) Send(from, to ring.NodeID, m wire.Message) {
	if op := s.tr.cur; op != nil {
		if id, ok := requestID(m); ok {
			if op.sent.IsZero() {
				op.sent = time.Now()
			}
			s.tr.byWire[id] = op
		}
	}
	s.inner.Send(from, to, m)
}

// tracingHandler stamps the moment the transport hands the response back.
type tracingHandler struct {
	inner transport.Handler
	tr    *tracer
}

func (h tracingHandler) Deliver(from ring.NodeID, m wire.Message) {
	if id, ok := responseID(m); ok {
		if op, ok := h.tr.byWire[id]; ok {
			delete(h.tr.byWire, id)
			if op.recv.IsZero() {
				op.recv = time.Now()
			}
		}
	}
	h.inner.Deliver(from, m)
}

func requestID(m wire.Message) (uint64, bool) {
	switch r := m.(type) {
	case wire.ReadRequest:
		return r.ID, true
	case wire.WriteRequest:
		return r.ID, true
	}
	return 0, false
}

func responseID(m wire.Message) (uint64, bool) {
	switch r := m.(type) {
	case wire.ReadResponse:
		return r.ID, true
	case wire.WriteResponse:
		return r.ID, true
	case wire.Error:
		return r.ID, true
	}
	return 0, false
}

// selfTimes gives each span name's total self time: a span's duration minus
// the part of it its children cover. Children of one parent are taken in
// start order and overlapping cover is counted once. It also returns the
// summed duration of root spans, which the self times must add up to.
func selfTimes(spans []span) (self map[string]int64, roots int64) {
	self = make(map[string]int64)
	// Spans of one operation are contiguous and the root comes first (the
	// order end() writes them).
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].Op == spans[i].Op {
			j++
		}
		op := spans[i:j]
		for _, s := range op {
			dur := s.End - s.Start
			if s.Parent == "" {
				roots += dur
			}
			var covered, edge int64 = 0, s.Start
			for _, c := range op { // children are written in start order
				if c.Parent != s.Name || c.Op != s.Op {
					continue
				}
				lo, hi := max(c.Start, edge), min(c.End, s.End)
				if hi > lo {
					covered += hi - lo
					edge = hi
				}
			}
			self[s.Name] += dur - covered
		}
		i = j
	}
	return self, roots
}

func writeSpans(path string, sets ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, spans := range sets {
		for _, s := range spans {
			fmt.Fprintf(w, `{"op":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Op, s.Name, s.Parent, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
