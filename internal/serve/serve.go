package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
)

// Config tunes the server. The zero value is usable: 4 shards, immediate
// batching, no deadline shedding, breaker on.
type Config struct {
	// Shards is the number of device shards (default 4). A device is pinned
	// to shard device%Shards, so all its state has one writer.
	Shards int
	// QueueLen bounds each shard's request queue (default 256). A decide
	// arriving at a full queue is answered admit+FlagShed without inference.
	QueueLen int
	// BatchWindow is how long a shard waits after the first request of a
	// wakeup for more to arrive (default 0: decide immediately). Batching
	// amortizes wakeups and writer flushes; it never changes decisions.
	BatchWindow time.Duration
	// MaxBatch bounds one wakeup's batch (default 64).
	MaxBatch int
	// Budget, when positive, sheds decide requests that aged past it in
	// queue: answered admit+FlagDeadline without inference, so an I/O never
	// waits on a backlogged predictor longer than the budget.
	Budget time.Duration
	// GroupTimeout bounds how long a partially-filled joint group (models
	// with JointSize P > 1) may hold its members' responses before flushing
	// them admit+FlagPartial (default 2ms). Only a deadline or shutdown
	// flushes partial groups; group membership itself is sequence-based and
	// deterministic.
	GroupTimeout time.Duration

	// BreakerWindow is the per-shard decision window for shed-rate trip
	// checks (default 256; negative disables the breaker).
	BreakerWindow int
	// TripShedRate is the windowed shed fraction that trips the breaker
	// (default 0.5). An open breaker answers admit+FlagBreaker without
	// inference for Cooldown decisions, letting the shard drain, then
	// half-open-probes the model.
	TripShedRate float64
	// Cooldown is how many open-state decisions bypass inference before
	// probing resumes (default 4×BreakerWindow).
	Cooldown int
	// Probes is how many half-open probes decide recovery (default 16).
	Probes int

	// ReadTimeout, when positive, bounds how long a connection may idle
	// between frames; a peer that sends nothing for longer is dropped. Zero
	// keeps connections open indefinitely (the pre-hardening behavior).
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds every response write. A peer that
	// cannot drain its responses within it is dropped (write shed) so a slow
	// client can never hold a shard worker hostage. Zero disables the bound.
	WriteTimeout time.Duration

	// DriftRef, when set, gives every shard an input-drift detector
	// (internal/drift PSI) referenced on these training-time feature rows.
	// Shards observe the rows they infer on and publish MaxPSI in Stats, so
	// an operator (or the retrain loop in cmd/heimdall-serve's example) can
	// watch for drift and hot-swap a retrained model.
	DriftRef [][]float64
	// DriftBins is the detector's histogram resolution (default 10).
	DriftBins int
	// OnDrift, when set together with DriftRef, is registered on every
	// shard's detector: it is called back (with the window's MaxPSI) each
	// time a shard publishes a PSI at or above DriftThreshold — the push
	// alternative to polling MaxPSI out of Stats. The callback runs on
	// shard worker goroutines, possibly concurrently from several shards;
	// it must be fast and concurrency-safe.
	OnDrift func(maxPSI float64)
	// DriftThreshold is the PSI that triggers OnDrift (default 0.1, the
	// conventional "moderate shift" floor).
	DriftThreshold float64

	// Completions, when set, receives every completion observation after
	// it updates the device's feature trackers — the harvest hook
	// continuous learning feeds on. Before this hook, the measured
	// latencies were simply dropped. The sink is called on shard worker
	// goroutines (concurrently across shards, in completion order within a
	// device) and must not block; nil costs the decide/complete paths
	// nothing.
	Completions CompletionSink
	// Decisions, when set, observes a sample of served verdicts together
	// with the raw feature rows they were inferred on — the shadow-scoring
	// tap. Called inside the zero-alloc decide hot path, so implementations
	// must not allocate in steady state, must not retain row beyond the
	// call, and must not block.
	Decisions DecisionTap
}

// CompletionSink consumes completion-side latency observations the shards
// would otherwise discard after updating per-device feature trackers.
// Implementations are invoked from shard worker goroutines: concurrently
// across devices on different shards, strictly in completion order within
// one device.
type CompletionSink interface {
	OnCompletion(device uint32, latencyNs uint64, queueLen, size uint32)
}

// DecisionTap observes inferred verdicts on the decide hot path. row is the
// raw (unscaled) feature row the model scored, valid only for the duration
// of the call; implementations copy what they keep and return quickly.
// Shed/breaker/partial verdicts never reach the tap — only real inferences.
type DecisionTap interface {
	OnDecision(device uint32, row []float64, admit bool)
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 4
}

func (c Config) queueLen() int {
	if c.QueueLen > 0 {
		return c.QueueLen
	}
	return 256
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 64
}

func (c Config) groupTimeout() time.Duration {
	if c.GroupTimeout > 0 {
		return c.GroupTimeout
	}
	return 2 * time.Millisecond
}

func (c Config) breakerWindow() int {
	if c.BreakerWindow > 0 {
		return c.BreakerWindow
	}
	if c.BreakerWindow < 0 {
		return 0 // disabled
	}
	return 256
}

func (c Config) tripShedRate() float64 {
	if c.TripShedRate > 0 {
		return c.TripShedRate
	}
	return 0.5
}

func (c Config) cooldown() int {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 4 * c.breakerWindow()
}

func (c Config) probes() int {
	if c.Probes > 0 {
		return c.Probes
	}
	return 16
}

func (c Config) driftBins() int {
	if c.DriftBins > 0 {
		return c.DriftBins
	}
	return 10
}

func (c Config) driftThreshold() float64 {
	if c.DriftThreshold > 0 {
		return c.DriftThreshold
	}
	return 0.1
}

// servingModel is one immutable published model. Workers load the pointer
// once per batch, so every decision in a batch comes from one consistent
// (model, version) pair — a swap can never produce a torn read.
type servingModel struct {
	m       *core.Model
	version uint32
}

// Server is the online admission service. Create with NewServer, attach
// listeners with Serve, stop with Close.
type Server struct {
	cfg    Config
	model  atomic.Pointer[servingModel]
	vers   atomic.Uint32
	swaps  atomic.Uint64
	shards []*shard
	start  time.Time

	accepts    atomic.Uint64 // connections accepted over all listeners
	connDrops  atomic.Uint64 // connections dropped on read/protocol errors
	writeDrops atomic.Uint64 // connections shed because a response write failed
	drained    atomic.Uint64 // decides answered during graceful shutdown

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wgConns   sync.WaitGroup
	wgWorkers sync.WaitGroup
}

// NewServer builds the shards and starts their workers. The model must be
// treated as immutable from here on (publish changes via Swap).
//
//heimdall:walltime
func NewServer(m *core.Model, cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.vers.Store(1)
	s.model.Store(&servingModel{m: m, version: 1})
	for i := 0; i < cfg.shards(); i++ {
		sh := &shard{
			srv:  s,
			q:    make(chan request, cfg.queueLen()),
			devs: make(map[uint32]*deviceState),
		}
		if len(cfg.DriftRef) > 0 {
			sh.det = drift.NewInputDetector(cfg.DriftRef, cfg.driftBins())
			if cfg.OnDrift != nil {
				sh.det.Subscribe(cfg.driftThreshold(), cfg.OnDrift)
			}
		}
		s.shards = append(s.shards, sh)
		s.wgWorkers.Add(1)
		go sh.run()
	}
	return s
}

// now is the server's monotonic clock: nanoseconds since NewServer. Queue
// deadlines compare these stamps; nothing persists them.
//
//heimdall:walltime
func (s *Server) now() int64 { return int64(time.Since(s.start)) }

// Model returns the currently published model and its version.
func (s *Server) Model() (*core.Model, uint32) {
	sm := s.model.Load()
	return sm.m, sm.version
}

// Swap atomically publishes a new model and returns its version. In-flight
// batches finish on the model they loaded; later batches use the new one.
// No request is dropped and none observes a half-swapped state.
func (s *Server) Swap(m *core.Model) uint32 {
	v := s.vers.Add(1)
	s.model.Store(&servingModel{m: m, version: v})
	s.swaps.Add(1)
	return v
}

// Stats snapshots all shard counters.
func (s *Server) Stats() Stats {
	var out Stats
	sm := s.model.Load()
	out.ModelVersion = sm.version
	out.Swaps = s.swaps.Load()
	out.ConnsAccepted = s.accepts.Load()
	out.ConnDrops = s.connDrops.Load()
	out.WriteDrops = s.writeDrops.Load()
	out.Drained = s.drained.Load()
	s.mu.Lock()
	out.ConnsOpen = len(s.conns)
	s.mu.Unlock()
	for _, sh := range s.shards {
		out.add(sh.cnt.snapshot(len(sh.q)))
		for i := range sh.cnt.batches {
			out.BatchHist[i] += sh.cnt.batches[i].Load()
		}
	}
	return out
}

// Listen opens a listener for addr. Addresses are "unix:/path/sock" or
// "tcp:host:port" (bare addresses default to tcp).
func Listen(addr string) (net.Listener, error) {
	network := "tcp"
	if len(addr) > 5 && addr[:5] == "unix:" {
		network, addr = "unix", addr[5:]
	} else if len(addr) > 4 && addr[:4] == "tcp:" {
		addr = addr[4:]
	}
	return net.Listen(network, addr)
}

// Serve accepts connections on l until Close (or a listener error) and
// blocks. Multiple listeners may serve concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if err := l.Close(); err != nil {
			return err
		}
		return fmt.Errorf("serve: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepts.Add(1)
		s.wgConns.Add(1)
		go s.handleConn(c)
	}
}

// Close drains gracefully: stop accepting, half-close every connection so
// no new request enters but pending verdicts still flow, wait for the
// readers, drain the shard queues (deciding normally, flushing held
// joint-group members fail-open), and only then close the sockets. Every
// request that made it into a queue gets its verdict. Safe to call once.
//
//heimdall:walltime
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var firstErr error
	for l := range s.listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	// Half-close the read side (deadline-kick as a fallback for conn types
	// without CloseRead): readers wake and exit, the write side stays up so
	// drained work is still answered.
	for _, c := range conns {
		if cr, ok := c.(interface{ CloseRead() error }); ok {
			_ = cr.CloseRead()
		} else {
			_ = c.SetReadDeadline(time.Now())
		}
	}
	s.wgConns.Wait()
	for _, sh := range s.shards {
		close(sh.q)
	}
	s.wgWorkers.Wait()
	// Everything enqueued has been answered and flushed; drop the wire.
	s.mu.Lock()
	for c := range s.conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.conns, c)
	}
	s.mu.Unlock()
	return firstErr
}

// request is one routed message. It travels the shard queue by value — the
// channel send copies the struct — so steady-state traffic needs no pool and
// no allocation per request, and request lifetime can never depend on
// sync.Pool's GC-coupled reuse order.
type request struct {
	kind uint8 // msgDecide or msgComplete
	dec  decideRequest
	comp completion
	enq  int64 // Server.now() at enqueue
	out  *connWriter
}

// device returns the request's routing key.
func (r *request) device() uint32 {
	if r.kind == msgComplete {
		return r.comp.device
	}
	return r.dec.device
}

// handleConn runs one connection's read loop and settles its lifecycle:
// on a graceful drain the socket is left to Close (which answers the
// drained work through it first); otherwise abnormal exits are counted and
// the socket dropped.
func (s *Server) handleConn(c net.Conn) {
	defer s.wgConns.Done()
	err := s.serveConn(c)
	s.mu.Lock()
	draining := s.closed
	if !draining {
		delete(s.conns, c)
	}
	s.mu.Unlock()
	if draining {
		return // Close owns the socket now
	}
	if err != nil && err != io.EOF {
		s.connDrops.Add(1)
	}
	_ = c.Close()
}

// serveConn reads frames and routes them. Decide and complete messages go
// to the owning shard; stats and swap are answered inline (they are not
// hot). io.EOF is the clean-close return.
//
// The read loop is syscall-frugal: one blocking read pulls whatever the
// peer has sent into the bufio buffer, then the drain loop parses every
// fully-buffered frame in place (zero-copy — bodies alias the read buffer
// and the fixed-width fields are copied out before the buffer is reused)
// without touching the socket again. Responses produced inline during the
// drain (queue-full sheds, stats, swap acks) coalesce in the writer and go
// out in one vectored flush per drain.
//
//heimdall:walltime
func (s *Server) serveConn(c net.Conn) error {
	fr := newFrameReader(c)
	cw := newConnWriter(c, s.cfg.WriteTimeout, &s.writeDrops)
	rt := s.cfg.ReadTimeout
	for {
		if rt > 0 {
			_ = c.SetReadDeadline(time.Now().Add(rt))
		}
		body, err := fr.next() // likely one read syscall
		if err != nil {
			return err
		}
		for {
			if err := s.dispatch(body, cw); err != nil {
				return err
			}
			if !fr.buffered() {
				break
			}
			if body, err = fr.next(); err != nil {
				return err
			}
		}
		cw.flush()
	}
}

// dispatch routes one parsed frame body. The body may alias the connection's
// read buffer: every field a message needs is copied into the value-typed
// request before dispatch returns, so nothing outlives the buffer's reuse.
func (s *Server) dispatch(body []byte, cw *connWriter) error {
	nshards := uint32(len(s.shards))
	switch body[0] {
	case msgDecide:
		dec, err := parseDecide(body)
		if err != nil {
			return err
		}
		sh := s.shards[dec.device%nshards]
		select {
		case sh.q <- request{kind: msgDecide, dec: dec, enq: s.now(), out: cw}:
		default:
			// Queue full: fail open immediately so the I/O proceeds. The
			// response coalesces with the rest of the drain's answers and is
			// flushed by the read loop.
			sh.cnt.sheds.Add(1)
			sh.cnt.admits.Add(1)
			cw.decideResp(dec.id, true, FlagShed, s.model.Load().version)
		}
	case msgComplete:
		comp, err := parseComplete(body)
		if err != nil {
			return err
		}
		// Completions feed the feature history and are never shed —
		// dropping one would fork the tracker from the client's view.
		// The blocking send is backpressure on this connection only.
		s.shards[comp.device%nshards].q <- request{kind: msgComplete, comp: comp, out: cw}
	case msgStats:
		payload, err := json.Marshal(s.Stats())
		if err != nil {
			return err
		}
		// The frame itself goes through the pooled encoder: only the JSON
		// payload allocates, never the framing.
		if !cw.control(msgStatsResp, payload) {
			return cw.sticky()
		}
	case msgSwap:
		var scratch [5]byte
		resp := scratch[:]
		resp[0] = 1
		m, err := core.Load(bytes.NewReader(body[1:]))
		var v uint32
		if err != nil {
			resp[0] = 0
			resp = append(resp, err.Error()...)
		} else {
			v = s.Swap(m)
		}
		resp[1] = byte(v >> 24)
		resp[2] = byte(v >> 16)
		resp[3] = byte(v >> 8)
		resp[4] = byte(v)
		if !cw.control(msgSwapResp, resp) {
			return cw.sticky()
		}
	default:
		// Unknown message type: protocol error, drop the conn.
		return fmt.Errorf("%w: unknown message type %#x", ErrFrame, body[0])
	}
	return nil
}

// Response-buffer pooling bounds. respBufSize coalesces a whole micro-batch
// of decide responses (23 bytes each) into one buffer — one Write syscall;
// only a larger-than-4KiB burst spills into further buffers and a vectored
// write. respFreeMax caps how many recycled buffers one connection retains.
const (
	respBufSize = 4096
	respFreeMax = 16
)

// connWriter serializes response writes to one connection. Shard workers
// and the connection's reader both answer through it; the mutex is the only
// lock on the decide path and is per-connection. Errors are sticky: once a
// write fails the peer is shed — counted, its socket closed so the reader
// wakes — and later writes no-op. With a write timeout armed, a worker
// blocks on a slow peer for at most that long, never indefinitely.
//
// Encoding is zero-copy out: responses are encoded directly into recycled
// coalescing buffers from a per-connection freelist (deterministic LIFO —
// no sync.Pool, so buffer reuse order never depends on GC timing), and a
// flush pushes every sealed buffer with one vectored write (net.Buffers →
// writev on TCP/unix conns) then recycles them.
type connWriter struct {
	mu      sync.Mutex
	c       net.Conn  // nil in tests that write to a plain io.Writer
	w       io.Writer // flush target when c is nil
	cur     []byte    // open coalescing buffer; responses append here
	pend    [][]byte  // sealed buffers awaiting the vectored flush
	free    [][]byte  // LIFO freelist of recycled buffers
	vec     net.Buffers
	timeout time.Duration // per-write deadline; 0 = unbounded
	drops   *atomic.Uint64
	err     error
}

func newConnWriter(c net.Conn, timeout time.Duration, drops *atomic.Uint64) *connWriter {
	return &connWriter{c: c, cur: make([]byte, 0, respBufSize), timeout: timeout, drops: drops}
}

// newSinkWriter builds a connWriter draining into w — the test harness
// constructor (alloc pins, fuzz) where no socket exists.
func newSinkWriter(w io.Writer) *connWriter {
	return &connWriter{w: w, cur: make([]byte, 0, respBufSize)}
}

// ensureLocked makes room for n more bytes in the open buffer, sealing it
// onto the pending list and recycling (or growing) as needed. n must be
// ≤ respBufSize. Called with mu held.
//
//heimdall:hotpath
func (w *connWriter) ensureLocked(n int) {
	if cap(w.cur)-len(w.cur) >= n {
		return
	}
	if len(w.cur) > 0 {
		w.pend = append(w.pend, w.cur)
		w.cur = nil
	}
	if k := len(w.free); k > 0 {
		w.cur = w.free[k-1]
		w.free = w.free[:k-1]
		return
	}
	w.cur = make([]byte, 0, respBufSize)
}

// arm starts the write-deadline clock for the next write. Called with mu
// held.
//
//heimdall:walltime
func (w *connWriter) arm() {
	if w.timeout > 0 && w.c != nil {
		_ = w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

// shedLocked handles the first sticky error: count the drop and close the
// socket so the connection's reader exits too. Called with mu held.
func (w *connWriter) shedLocked() {
	if w.drops != nil {
		w.drops.Add(1)
	}
	if w.c != nil {
		_ = w.c.Close()
	}
}

// sticky returns the writer's sticky error, if any.
func (w *connWriter) sticky() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// decideResp encodes and buffers one decide response. The frame is written
// directly into the open recycled buffer — no intermediate scratch, no copy,
// no allocation in steady state. It is a determinism sink: everything in a
// verdict frame (id, admit bit, flags, model version) must be a pure
// function of the request stream, never of the wall clock or scheduling.
//
//heimdall:hotpath
//heimdall:nountaint
func (w *connWriter) decideResp(id uint64, admit bool, flags uint8, version uint32) {
	w.mu.Lock()
	if w.err == nil {
		w.ensureLocked(4 + decideRespLen)
		off := len(w.cur)
		w.cur = w.cur[:off+4+decideRespLen]
		b := w.cur[off:]
		b[0], b[1], b[2], b[3] = 0, 0, 0, decideRespLen
		b[4] = msgDecideResp
		b[5] = byte(id >> 56)
		b[6] = byte(id >> 48)
		b[7] = byte(id >> 40)
		b[8] = byte(id >> 32)
		b[9] = byte(id >> 24)
		b[10] = byte(id >> 16)
		b[11] = byte(id >> 8)
		b[12] = byte(id)
		b[13] = 0
		if admit {
			b[13] = 1
		}
		b[14] = flags
		b[15] = byte(version >> 24)
		b[16] = byte(version >> 16)
		b[17] = byte(version >> 8)
		b[18] = byte(version)
	}
	w.mu.Unlock()
}

// control encodes one control-plane frame (type byte + payload) into the
// recycled buffers and flushes. The payload is copied — it may alias the
// caller's scratch — chunked across buffers so every pooled buffer keeps its
// fixed size. Reports whether the writer is still healthy.
//
//heimdall:hotpath
func (w *connWriter) control(typ byte, payload []byte) bool {
	if 1+len(payload) > MaxFrame {
		return false
	}
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return false
	}
	n := 1 + len(payload)
	w.ensureLocked(5)
	off := len(w.cur)
	w.cur = w.cur[:off+5]
	b := w.cur[off:]
	b[0] = byte(n >> 24)
	b[1] = byte(n >> 16)
	b[2] = byte(n >> 8)
	b[3] = byte(n)
	b[4] = typ
	for len(payload) > 0 {
		w.ensureLocked(1)
		space := cap(w.cur) - len(w.cur)
		if space > len(payload) {
			space = len(payload)
		}
		w.cur = append(w.cur, payload[:space]...)
		payload = payload[space:]
	}
	w.flushLocked()
	ok := w.err == nil
	w.mu.Unlock()
	return ok
}

// flush pushes buffered responses to the socket in one vectored write.
func (w *connWriter) flush() {
	w.mu.Lock()
	if w.err == nil {
		w.flushLocked()
	}
	w.mu.Unlock()
}

// flushLocked seals the open buffer and writes everything pending with a
// single vectored write (writev on real conns), then recycles the buffers
// onto the freelist. Called with mu held.
//
//heimdall:hotpath
func (w *connWriter) flushLocked() {
	if len(w.cur) > 0 {
		w.pend = append(w.pend, w.cur)
		w.cur = nil
	}
	if len(w.pend) == 0 {
		return
	}
	w.arm()
	if w.c != nil {
		// Build the vectored view in reusable scratch; WriteTo consumes a
		// copy of the header, so w.vec keeps its capacity across flushes.
		w.vec = append(w.vec[:0], w.pend...)
		bufs := w.vec
		_, w.err = bufs.WriteTo(w.c)
		w.vec = w.vec[:0]
	} else {
		for _, b := range w.pend {
			if _, w.err = w.w.Write(b); w.err != nil {
				break
			}
		}
	}
	if w.err != nil {
		w.shedLocked()
		w.pend = w.pend[:0]
		w.ensureLocked(1)
		return
	}
	// Recycle: sealed buffers return to the LIFO freelist (bounded), and the
	// open buffer is restocked from it so the next batch starts warm.
	for i, b := range w.pend {
		if len(w.free) < respFreeMax {
			w.free = append(w.free, b[:0])
		}
		w.pend[i] = nil
	}
	w.pend = w.pend[:0]
	w.ensureLocked(1)
}
