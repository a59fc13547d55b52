package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

const (
	// nSlices is how many equal slices the measured window is cut into. A
	// timing is reported from its per-slice values (see quiet).
	nSlices = 15
	warmup  = 3 * time.Second
	// pipelineWindow keeps each connection's 4 devices × ≤ 3 held joint
	// members below the window, so a joint group never waits on the client.
	pipelineWindow = 32
)

// A verdict is logged as one byte: answered bit | flags<<1 | admit. Zero
// means no verdict has arrived.
const verdAnswered = 0x80

func logByte(v serve.Verdict) uint8 {
	b := uint8(verdAnswered) | v.Flags<<1
	if v.Admit {
		b |= 1
	}
	return b
}

// loggedFlags returns the serve.Flag* bits of a logged verdict.
func loggedFlags(b uint8) uint8 { return b >> 1 & 0x3f }

// window is the wall-clock plan of one load phase, in ns since base.
type window struct {
	base       time.Time
	start, end int64
	slice      int64
	maxDecides int // stop after this many decides per connection; 0 = run to end
}

func newWindow(seconds float64) *window {
	w := &window{base: time.Now(), start: int64(warmup)}
	w.slice = int64(seconds * float64(time.Second) / nSlices)
	w.end = w.start + nSlices*w.slice
	return w
}

// tracedSlice reports whether a traced run records spans in slice s. It does
// in every other slice, so the traced and the untraced slices see the same
// machine, and the ratio of their throughputs is the tracing overhead.
func tracedSlice(s int) bool { return s >= 0 && s%2 == 1 }

func (w *window) now() int64 { return int64(time.Since(w.base)) }

// sliceOf maps a time to its slice: -1 before the window, nSlices after.
func (w *window) sliceOf(t int64) int {
	if t < w.start {
		return -1
	}
	if t >= w.end {
		return nSlices
	}
	return int((t - w.start) / w.slice)
}

// ringEntry remembers an in-flight decide until its verdict is reaped. At
// most pipelineWindow decides are in flight, and a held joint member is
// released within a few decides of its device, so the id span stays far
// below ringSize; an overwritten entry is reported, not guessed around.
type ringEntry struct {
	id        uint64
	t0        int64
	flushTurn int32
}

const ringSize = 1 << 12

// connRun drives one connection through its share of the script and keeps
// what it saw: per-slice latency samples, and one log byte per decide for the
// verdict check after the run.
type connRun struct {
	c    *serve.Client
	msgs []msg
	w    *window
	tr   *tracer // nil on an untraced run

	pos  int // next message
	sent int // decides sent so far; the next decide's ordinal
	// Decides [winFirst, winLast) were sent inside the measured window.
	winFirst, winLast int
	lat               [nSlices][]int32
	verd              []uint8
	ring              []ringEntry
}

// tracing reports whether spans are being recorded right now.
func (r *connRun) tracing() bool { return r.tr != nil && r.tr.on }

func newConnRun(c *serve.Client, msgs []msg, w *window, tr *tracer, ratePerSec int) *connRun {
	r := &connRun{c: c, msgs: msgs, w: w, tr: tr, winFirst: -1, winLast: -1, ring: make([]ringEntry, ringSize)}
	perSlice := int(float64(w.slice) / 1e9 * float64(ratePerSec))
	for i := range r.lat {
		r.lat[i] = make([]int32, 0, perSlice)
	}
	r.verd = make([]uint8, 0, int(float64(w.end)/1e9*float64(ratePerSec)))
	return r
}

// next returns the message at the script position without consuming it.
func (r *connRun) next() *msg {
	if r.pos == len(r.msgs) {
		r.pos = 0
	}
	return &r.msgs[r.pos]
}

// begin is called with a decide's send time. It reports false once the phase
// is over; otherwise it books the decide's ordinal and switches tracing for
// the slice the decide falls in.
func (r *connRun) begin(t0 int64) bool {
	s := r.w.sliceOf(t0)
	if s >= nSlices || (r.w.maxDecides > 0 && r.sent >= r.w.maxDecides) {
		if r.winLast < 0 {
			r.winLast = r.sent
		}
		if r.tr != nil {
			r.tr.on = false
		}
		return false
	}
	if s >= 0 && r.winFirst < 0 {
		r.winFirst = r.sent
	}
	if r.tr != nil {
		r.tr.on = tracedSlice(s)
	}
	r.verd = append(r.verd, 0)
	return true
}

// complete buffers one completion frame.
func (r *connRun) complete(m *msg) error {
	if !r.tracing() {
		return r.c.Complete(m.dev, m.lat, int(m.qlen), m.size)
	}
	r.tr.firstIO = -1
	s0 := r.tr.now()
	err := r.c.Complete(m.dev, m.lat, int(m.qlen), m.size)
	r.tr.encode(s0, r.tr.now(), 0)
	return err
}

// record logs one verdict reaped at t1 and samples its latency.
func (r *connRun) record(v serve.Verdict, t0, t1 int64) error {
	ord := int(v.ID) - 1
	if ord < 0 || ord >= r.sent {
		return fmt.Errorf("verdict for id %d, but only %d decides were sent", v.ID, r.sent)
	}
	if r.verd[ord] != 0 {
		return fmt.Errorf("decide %d answered twice", v.ID)
	}
	r.verd[ord] = logByte(v)
	if s := r.w.sliceOf(t1); s >= 0 && s < nSlices {
		r.lat[s] = append(r.lat[s], int32(t1-t0))
	}
	return nil
}

// runSync is decide-sync's loop: one decide in flight, completions riding in
// the next decide's flush. Send, Flush and Recv are exactly Client.Decide,
// called apart so the traced run can time each.
func (r *connRun) runSync() error {
	for {
		m := r.next()
		if m.kind == kindComplete {
			r.pos++
			if err := r.complete(m); err != nil {
				return err
			}
			continue
		}
		t0 := r.w.now()
		if !r.begin(t0) {
			break
		}
		r.pos++
		r.sent++
		id := uint64(r.sent)
		if r.tracing() {
			r.tr.firstIO = -1
		}
		if err := r.c.Send(id, m.dev, int(m.qlen), m.size); err != nil {
			return err
		}
		var flushTurn int32
		if r.tracing() {
			r.tr.encode(t0, r.tr.now(), id)
			flushTurn = r.tr.nextFlushTurn()
		}
		if err := r.c.Flush(); err != nil {
			return err
		}
		v, err := r.c.Recv()
		if err != nil {
			return err
		}
		t1 := r.w.now()
		if r.tracing() {
			r.tr.endTurn(t1)
			r.tr.decide(id, t0, t1, flushTurn)
		}
		if err := r.record(v, t0, t1); err != nil {
			return err
		}
	}
	return r.c.Flush()
}

// runPipelined is the windowed loop of decide-pipelined and decide-joint:
// Pipeline.Submit keeps `window` decides in flight and hands back whatever
// verdicts a full window's flush reaped.
func (r *connRun) runPipelined(window int) error {
	p := r.c.Pipeline(window)
	for {
		m := r.next()
		if m.kind == kindComplete {
			r.pos++
			if err := r.complete(m); err != nil {
				return err
			}
			continue
		}
		t0 := r.w.now()
		if !r.begin(t0) {
			break
		}
		r.pos++
		r.sent++
		e := &r.ring[r.sent%ringSize]
		*e = ringEntry{id: uint64(r.sent), t0: t0}
		if r.tracing() {
			r.tr.firstIO = -1
			e.flushTurn = r.tr.nextFlushTurn()
		}
		id, reaped, err := p.Submit(m.dev, int(m.qlen), m.size)
		if err != nil {
			return err
		}
		if id != uint64(r.sent) {
			return fmt.Errorf("pipeline assigned id %d to decide %d", id, r.sent)
		}
		t1 := t0
		if r.tracing() || len(reaped) > 0 {
			t1 = r.w.now()
		}
		if r.tracing() {
			r.tr.encode(t0, t1, id)
			if len(reaped) > 0 {
				r.tr.endTurn(t1)
			}
		}
		if err := r.reap(reaped, t1); err != nil {
			return err
		}
	}
	rest, err := p.Drain(nil)
	if err != nil {
		return err
	}
	if err := r.reap(rest, r.w.now()); err != nil {
		return err
	}
	return r.c.Flush()
}

func (r *connRun) reap(vs []serve.Verdict, t1 int64) error {
	for _, v := range vs {
		e := &r.ring[v.ID%ringSize]
		if e.id != v.ID {
			return fmt.Errorf("verdict %d overran the %d-entry latency ring", v.ID, ringSize)
		}
		if r.tracing() {
			r.tr.decide(v.ID, e.t0, t1, e.flushTurn)
		}
		if err := r.record(v, e.t0, t1); err != nil {
			return err
		}
	}
	return nil
}

// tally is the outcome of checking one connection's verdict log.
//
// A FlagPartial answer is not a failure: it is the protocol's answer to a
// group whose tail is more than GroupTimeout (2 ms) late, and on a box with
// as many load goroutines as CPUs the scheduler parks a sender that long a
// few dozen times a second. They are counted (serve.partial_flushes) and the
// reference regroups around them. Shed, deadline and breaker answers mean the
// server was overloaded, and do fail.
type tally struct {
	attempted  int64 // decides sent inside the window
	failed     int64 // of those: unanswered, overload-flagged or different from the reference
	mismatches int64 // anywhere in the run: different from the reference
	partial    int64 // anywhere in the run: answered FlagPartial
	unanswered int64
	first      string // the first mismatch, for the error message
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.partial += o.partial
	t.unanswered += o.unanswered
	if t.first == "" {
		t.first = o.first
	}
}

// check replays the connection's stream through the reference with the
// flags the server answered, and compares every logged verdict. Groups on
// the script's own boundaries take their code from the precomputed passes;
// only groups a partial flush shifted off them are scored again.
func (r *connRun) check(exp *expected, model []byte) (tally, error) {
	var t tally
	ref, err := newReference(model)
	if err != nil {
		return t, err
	}
	flags := make([]uint8, r.sent)
	for i, b := range r.verd {
		flags[i] = loggedFlags(b)
	}
	want := make([]uint8, r.sent)
	ref.replay(r.msgs, r.sent, want, replayOpts{flags: flags, stride: 1, memo: exp.at})

	if r.winFirst >= 0 {
		t.attempted = int64(r.winLast - r.winFirst)
	}
	for ord, b := range r.verd {
		bad := false
		switch {
		case b == 0:
			t.unanswered++
			bad = true
		case flags[ord] != 0:
			// Answered without inference; every such path must fail open.
			if flags[ord] == serve.FlagPartial {
				t.partial++
			} else {
				bad = true
			}
			if b&1 == 0 {
				t.mismatches++
				bad = true
			}
		case want[ord] != b&1:
			t.mismatches++
			bad = true
			if t.first == "" {
				t.first = fmt.Sprintf("decide %d: server said %d, reference %d", ord, b&1, want[ord])
			}
		}
		if bad && r.winFirst >= 0 && ord >= r.winFirst && ord < r.winLast {
			t.failed++
		}
	}
	return t, nil
}

// sliceStats are the merged per-slice figures of a phase.
type sliceStats struct {
	p50, p99, perSec [nSlices]float64 // ns, ns, decides/s
	samples          int
	sorted           [nSlices][]int32 // each slice's samples, ascending
}

func mergeSlices(runs []*connRun, w *window) sliceStats {
	var st sliceStats
	for s := 0; s < nSlices; s++ {
		var xs []int32
		for _, r := range runs {
			xs = append(xs, r.lat[s]...)
		}
		slices.Sort(xs)
		st.p50[s] = percentile(xs, 50)
		st.p99[s] = p99(xs)
		st.perSec[s] = float64(len(xs)) / (float64(w.slice) / 1e9)
		st.samples += len(xs)
		st.sorted[s] = xs
	}
	return st
}

// window returns every sample of the window, ascending.
func (st *sliceStats) window() []int32 {
	all := make([]int32, 0, st.samples)
	for _, xs := range st.sorted {
		all = append(all, xs...)
	}
	slices.Sort(all)
	return all
}

// dialConns opens the load connections. A traced run dials the socket itself
// so it can slip the timing wrapper under the client.
func dialConns(addr string, n int, w *window, traced bool) ([]*serve.Client, []*tracer, error) {
	clients := make([]*serve.Client, n)
	var tracers []*tracer
	for k := range clients {
		if !traced {
			c, err := serve.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			clients[k] = c
			continue
		}
		conn, err := net.Dial("unix", addr[len("unix:"):])
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer(w.base)
		tracers = append(tracers, tr)
		clients[k] = serve.NewClient(tracedConn{Conn: conn, t: tr})
	}
	return clients, tracers, nil
}

// drive runs every connection's loop to the end of the window and calls
// edge from the calling goroutine at every slice boundary: edge(0) as the
// window opens, edge(nSlices) as it closes.
func drive(runs []*connRun, pipeWindow int, edge func(i int) error) error {
	errs := make([]error, len(runs), len(runs)+nSlices+1)
	var wg sync.WaitGroup
	for k, r := range runs {
		wg.Add(1)
		go func(k int, r *connRun) {
			defer wg.Done()
			if pipeWindow > 0 {
				errs[k] = r.runPipelined(pipeWindow)
			} else {
				errs[k] = r.runSync()
			}
		}(k, r)
	}
	w := runs[0].w
	for i := 0; i <= nSlices; i++ {
		time.Sleep(time.Duration(w.start + int64(i)*w.slice - w.now()))
		errs = append(errs, edge(i))
	}
	wg.Wait()
	return errors.Join(errs...)
}
