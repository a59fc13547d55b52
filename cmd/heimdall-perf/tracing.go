package main

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span kinds. The benchmark records spans around its own calls into each
// layer — on the client side of the wire for the decide-* workloads; spans
// inside the program are a later change.
const (
	spanEncode uint8 = iota // Client.Send / Client.Complete: one frame into the write buffer
	spanFlush               // the socket write a Flush ends in
	spanWait                // a blocking socket read
	spanReap                // decoding the verdicts a read delivered
	spanTurn                // one flush → wait → reap cycle; parents the three above
	spanDecide              // one decide, from its Send to its verdict
	// Offline stages of train-replay: one span per call into the layer.
	spanTrain   // core.Train
	spanLabel   // core.Label
	spanExtract // feature.Extract
	spanReplay  // replay.Run
	spanPolicy  // policy.Heimdall.Decide, one per replayed read
	spanKinds
)

var spanNames = [spanKinds]string{"encode", "flush", "wait", "reap", "turn", "decide",
	"core.train", "core.label", "feature.extract", "replay.run", "policy.decide"}

// span is one recorded interval, in ns since the run's base time.
type span struct {
	start, end int64
	id         uint64 // decide and encode spans: the decide's wire id; turn spans: the turn number
	parent     int32  // index of the parent span in the same tracer, -1 for none
	flushTurn  int32  // decide spans: the turn that flushed it …
	reapTurn   int32  // … and the turn that reaped it
	kind       uint8
}

// maxSpans bounds what one connection keeps for the trace file. The sums the
// per-layer metrics come from cover every span of the traced window, kept or
// not.
const maxSpans = 1 << 16

// tracer collects one connection's spans in preallocated memory. It belongs
// to the goroutine that drives the connection, so it takes no locks. While
// on is false its hooks cost one branch.
type tracer struct {
	base  time.Time
	on    bool
	spans []span
	sum   [spanKinds]int64 // total ns per kind
	n     [spanKinds]int64
	self  int64 // turn time not covered by flush, wait or reap

	turns     int32 // turns opened so far; the open turn's number
	turnOpen  bool
	turnSlot  int32 // index of the open turn in spans, -1 if not kept
	turnStart int64
	children  int64 // child time inside the open turn
	lastRead  int64 // end of the open turn's latest read
	// firstIO is the start of the first socket call since the driver loop
	// last set it to -1: where the encode part of a client call ends.
	firstIO int64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpans), turnSlot: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) int32 {
	t.sum[s.kind] += s.end - s.start
	t.n[s.kind]++
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// encode records the buffered-encode part of a client call that began at
// start and returned at end: all of it, or up to the call's first socket
// write when the call went on to flush.
func (t *tracer) encode(start, end int64, id uint64) {
	if t.firstIO >= 0 {
		end = t.firstIO
	}
	t.add(span{kind: spanEncode, start: start, end: end, id: id, parent: -1})
}

// io records one socket write or read. The first write after a closed turn
// opens the next turn.
func (t *tracer) io(kind uint8, start, end int64) {
	if !t.turnOpen {
		t.turnOpen = true
		t.turns++
		t.turnStart = start
		t.children = 0
		t.turnSlot = t.add(span{kind: spanTurn, start: start, end: start, id: uint64(t.turns), parent: -1})
	}
	if t.firstIO < 0 {
		t.firstIO = start
	}
	t.add(span{kind: kind, start: start, end: end, parent: t.turnSlot})
	t.children += end - start
	if kind == spanWait {
		t.lastRead = end
	}
}

// endTurn closes the open turn at end: what followed its last read is the
// reap, and what its children do not cover is its self time.
func (t *tracer) endTurn(end int64) {
	if !t.turnOpen {
		return
	}
	t.turnOpen = false
	t.add(span{kind: spanReap, start: t.lastRead, end: end, parent: t.turnSlot})
	t.children += end - t.lastRead
	t.sum[spanTurn] += end - t.turnStart
	t.self += end - t.turnStart - t.children
	if t.turnSlot >= 0 {
		t.spans[t.turnSlot].end = end
	}
}

// nextFlushTurn is the number of the turn that will flush a frame buffered
// now.
func (t *tracer) nextFlushTurn() int32 {
	if t.turnOpen {
		return t.turns
	}
	return t.turns + 1
}

func (t *tracer) decide(id uint64, start, end int64, flushTurn int32) {
	t.add(span{kind: spanDecide, start: start, end: end, id: id, parent: -1, flushTurn: flushTurn, reapTurn: t.turns})
}

// tracedConn times the socket calls under a serve.Client.
type tracedConn struct {
	net.Conn
	t *tracer
}

func (c tracedConn) Read(p []byte) (int, error) {
	if !c.t.on {
		return c.Conn.Read(p)
	}
	start := c.t.now()
	n, err := c.Conn.Read(p)
	c.t.io(spanWait, start, c.t.now())
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	if !c.t.on {
		return c.Conn.Write(p)
	}
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.io(spanFlush, start, c.t.now())
	return n, err
}

// writeTrace writes every kept span as one JSON object per line.
func writeTrace(path string, tracers []*tracer) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for conn, t := range tracers {
		for i, s := range t.spans {
			b = append(b[:0], `{"conn":`...)
			b = strconv.AppendInt(b, int64(conn), 10)
			b = append(b, `,"span":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `,"name":"`...)
			b = append(b, spanNames[s.kind]...)
			b = append(b, `","start":`...)
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, `,"end":`...)
			b = strconv.AppendInt(b, s.end, 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendInt(b, int64(s.parent), 10)
			if s.kind == spanDecide || s.kind == spanEncode {
				b = append(b, `,"decide":`...)
				b = strconv.AppendUint(b, s.id, 10)
			}
			if s.kind == spanTurn {
				b = append(b, `,"turn":`...)
				b = strconv.AppendUint(b, s.id, 10)
			}
			if s.kind == spanDecide {
				b = append(b, `,"flush_turn":`...)
				b = strconv.AppendInt(b, int64(s.flushTurn), 10)
				b = append(b, `,"reap_turn":`...)
				b = strconv.AppendInt(b, int64(s.reapTurn), 10)
			}
			b = append(b, "}\n"...)
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
