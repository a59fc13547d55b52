package serve

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/feature"
	"repro/internal/policy"
)

// deviceState is everything the server tracks for one device. It lives in
// exactly one shard and is touched only by that shard's worker, so the
// decide path needs no locks.
type deviceState struct {
	//heimdall:owner shard.run
	win *feature.Window
	// Joint-group assembly (JointSize P > 1): a device's decide requests
	// are grouped strictly by arrival sequence — requests P·g .. P·g+P−1
	// form group g, decided by one forward pass when the last member
	// arrives. Membership never depends on batch timing, which is what
	// keeps batched decisions byte-identical to sequential ones.
	//
	//heimdall:owner shard.run
	sizes []int32
	//heimdall:owner shard.run
	pend []pendMember
	//heimdall:owner shard.run
	headQLen uint32
	//heimdall:owner shard.run
	firstEnq int64
}

// pendMember is a joint-group member whose response is held until the
// group fills (or a timeout/shutdown flushes it fail-open).
type pendMember struct {
	id  uint64
	out *connWriter
}

// pendingInf is one staged inference awaiting the batched forward pass: the
// request to answer plus, for a completed joint group, the span of held
// members in shard.members that share its verdict.
type pendingInf struct {
	id         uint64
	out        *connWriter
	dev        uint32
	mOff, mLen int
}

// shard owns a partition of the device space: a bounded queue, the
// per-device state, one model scratch, and a breaker. All fields except
// the queue and counters are worker-private. Requests travel the queue by
// value, so the datapath needs no request pool.
type shard struct {
	srv *Server
	q   chan request
	//heimdall:owner run,NewServer
	devs map[uint32]*deviceState
	cnt  counters

	//heimdall:owner run
	batch []request
	//heimdall:owner run
	touched []*connWriter

	// Batched-decide staging: requests that survive the breaker and
	// deadline checks assemble their feature rows at arrival order (phase
	// A) into per-slot buffers — one buffer per staged inference, because
	// two decides for the same device can sit in one batch — then a single
	// AdmitBatchInto call scores them all (phase B), and the verdicts fan
	// out in staging order (phase C). Integer-quantized engines are exact
	// at any batch shape, so the verdicts are byte-identical to the old
	// one-forward-pass-per-request path.
	//heimdall:owner run
	rowBufs [][]float64
	//heimdall:owner run
	rows [][]float64
	//heimdall:owner run
	infs []pendingInf
	//heimdall:owner run
	members []pendMember
	//heimdall:owner run
	verdicts []bool

	// scratch is rebuilt when the published model changes (its size
	// depends on the network architecture and active Predictor).
	//
	//heimdall:owner run
	scrFor *servingModel
	//heimdall:owner run
	scr *core.Scratch

	// deferred counts joint-group members across devices whose responses
	// are held; when nonzero the worker waits with a timeout so a stalled
	// group is flushed fail-open after GroupTimeout.
	//
	//heimdall:owner run
	deferred int

	// Breaker: policy.Guarded's decision-count-driven state machine,
	// retargeted at shed rate. All state is worker-private.
	//
	//heimdall:owner run
	bstate policy.BreakerState
	//heimdall:owner run
	bn int // closed: decisions in the current window
	//heimdall:owner run
	shedBase uint64 // sheds+deadline counter at window/half-open start
	//heimdall:owner run
	cooldown int // open: decisions left before half-open
	//heimdall:owner run
	probeSeq int // half-open: decisions since entering
	//heimdall:owner run
	probes int // half-open: probes performed

	//heimdall:owner run,NewServer
	det *drift.InputDetector
	//heimdall:owner run
	detN int
	//heimdall:owner run
	detPub int
}

func (sh *shard) shedTotal() uint64 {
	return sh.cnt.sheds.Load() + sh.cnt.deadline.Load()
}

// run is the shard worker: block for one request, drain the backlog up to
// MaxBatch, linger the gather window once if that drain left the batch
// short, then decide the whole batch against one atomic model load.
// Wall-clock use is audited: the batch window and queue-age deadlines are
// real serving time, not simulation time.
//
//heimdall:walltime
func (sh *shard) run() {
	defer sh.srv.wgWorkers.Done()
	cfg := sh.srv.cfg
	groupTimeout := int64(cfg.groupTimeout())
	maxBatch := cfg.maxBatch()
	var timer *time.Timer
	for {
		var r request
		var ok bool
		if sh.deferred > 0 {
			if timer == nil {
				timer = time.NewTimer(cfg.groupTimeout())
			} else {
				timer.Reset(cfg.groupTimeout())
			}
			select {
			case r, ok = <-sh.q:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				sh.flushExpired(sh.srv.now(), groupTimeout)
				sh.cnt.held.Store(int64(sh.deferred))
				continue
			}
		} else {
			r, ok = <-sh.q
		}
		if !ok {
			sh.shutdown()
			return
		}
		sh.batch = append(sh.batch[:0], r)
		sh.gather(maxBatch)
		// The window is an explicit latency-for-amortization trade: when the
		// first drain left the batch short, one window of patience can turn
		// several wakeups into one forward pass.
		if cfg.BatchWindow > 0 && len(sh.batch) < maxBatch {
			time.Sleep(cfg.BatchWindow)
			sh.gather(maxBatch)
		}
		sm := sh.srv.model.Load()
		if sm != sh.scrFor {
			sh.scr = sm.m.NewBatchScratch(maxBatch)
			sh.scrFor = sm
		}
		now := sh.srv.now()
		for i := range sh.batch {
			sh.process(sm, &sh.batch[i], now)
		}
		sh.decideStaged(sm)
		sh.cnt.observeBatch(len(sh.batch))
		sh.cnt.held.Store(int64(sh.deferred))
		for i := range sh.batch {
			sh.batch[i] = request{} // drop conn references
		}
		for i, w := range sh.touched {
			w.flush()
			sh.touched[i] = nil
		}
		sh.touched = sh.touched[:0]
		if sh.det != nil && sh.detN-sh.detPub >= 256 {
			// Publish both ways: the stats snapshot (pull) and any drift
			// subscribers registered via Config.OnDrift (push).
			sh.cnt.maxPSI.Store(math.Float64bits(sh.det.Publish()))
			sh.detPub = sh.detN
		}
	}
}

// gather drains queued requests into the batch, up to maxBatch, without
// blocking. A closed queue just stops the drain; the next blocking receive
// in run observes the close and triggers shutdown. gather is the channel
// boundary of the worker loop — channel ops are its whole job — so it is
// deliberately not //heimdall:hotpath (the lint bans channel ops there);
// its only append is receiver-rooted and the staged decide path that
// follows carries the zero-alloc contract.
func (sh *shard) gather(maxBatch int) {
	for len(sh.batch) < maxBatch {
		select {
		case more, open := <-sh.q:
			if !open {
				return
			}
			sh.batch = append(sh.batch, more)
		default:
			return
		}
	}
}

// process handles one routed request: completions feed the device history;
// decides pass through the deadline check and breaker, then stage their
// feature row for the batched forward pass (phase A — rows capture the
// device window exactly as it stood at this request's turn in arrival
// order, so batching cannot change what any row sees).
func (sh *shard) process(sm *servingModel, r *request, now int64) {
	st := sh.devs[r.device()]
	if st == nil {
		st = &deviceState{win: feature.NewWindow(sm.m.Spec().Depth)}
		sh.devs[r.device()] = st
	}
	if r.kind == msgComplete {
		c := r.comp
		thpt := 0.0
		if c.latency > 0 {
			// MB/s, matching iolog.Record.ThroughputMBps.
			thpt = float64(c.size) / (1 << 20) / (float64(c.latency) / 1e9)
		}
		st.win.Push(feature.Hist{
			Latency:  float64(c.latency),
			QueueLen: float64(c.queueLen),
			Thpt:     thpt,
		})
		// The trackers only keep a bounded window; hand the observation to
		// the harvest sink (continuous learning) before it is lost. Within
		// one device this runs in completion order — the sink can count on
		// a deterministic per-device stream.
		if sink := sh.srv.cfg.Completions; sink != nil {
			sink.OnCompletion(c.device, c.latency, c.queueLen, c.size)
		}
		return
	}

	dec := r.dec
	if w := sh.srv.cfg.breakerWindow(); w > 0 && !sh.breakerAdmits(sm, dec, r.out, w) {
		return // answered fail-open by the open/half-open breaker
	}
	if budget := int64(sh.srv.cfg.Budget); budget > 0 && now-r.enq > budget {
		// Aged out in queue: the I/O has already waited too long on the
		// predictor, so fail open without inference. Shed requests do not
		// join joint groups.
		sh.cnt.deadline.Add(1)
		sh.cnt.admits.Add(1)
		r.out.decideResp(dec.id, true, FlagDeadline, sm.version)
		sh.touch(r.out)
		return
	}
	sh.stageDecide(sm, st, dec, r.enq, r.out)
}

// breakerAdmits runs the shed-rate circuit breaker and reports whether the
// request should continue to inference. When it returns false the request
// was already answered admit+FlagBreaker.
func (sh *shard) breakerAdmits(sm *servingModel, dec decideRequest, out *connWriter, window int) bool {
	switch sh.bstate {
	case policy.BreakerOpen:
		sh.cooldown--
		if sh.cooldown <= 0 {
			sh.bstate = policy.BreakerHalfOpen
			sh.probeSeq, sh.probes = 0, 0
			sh.shedBase = sh.shedTotal()
		}
		sh.cnt.breakered.Add(1)
		sh.cnt.admits.Add(1)
		out.decideResp(dec.id, true, FlagBreaker, sm.version)
		sh.touch(out)
		return false
	case policy.BreakerHalfOpen:
		sh.probeSeq++
		if sh.probeSeq%probeEvery != 0 {
			sh.cnt.breakered.Add(1)
			sh.cnt.admits.Add(1)
			out.decideResp(dec.id, true, FlagBreaker, sm.version)
			sh.touch(out)
			return false
		}
		sh.probes++
		if sh.probes >= sh.srv.cfg.probes() {
			if sh.shedTotal() > sh.shedBase {
				// Still shedding while probing: back to open.
				sh.bstate = policy.BreakerOpen
				sh.cooldown = sh.srv.cfg.cooldown()
				sh.cnt.trips.Add(1)
			} else {
				sh.bstate = policy.BreakerClosed
				sh.bn = 0
				sh.shedBase = sh.shedTotal()
				sh.cnt.recoveries.Add(1)
			}
		}
		return true
	}
	// Closed: count the window and trip on sustained shed rate.
	sh.bn++
	if sh.bn >= window {
		shed := sh.shedTotal()
		if float64(shed-sh.shedBase)/float64(sh.bn) > sh.srv.cfg.tripShedRate() {
			sh.bstate = policy.BreakerOpen
			sh.cooldown = sh.srv.cfg.cooldown()
			sh.cnt.trips.Add(1)
		}
		sh.bn = 0
		sh.shedBase = shed
	}
	return true
}

// probeEvery matches policy.Guarded's half-open cadence: 1 in 4 decisions
// trials the model, the rest stay failed open.
const probeEvery = 4

// touch records a writer for the batch-end flush, so one syscall per
// connection per batch pushes out all its responses.
//
//heimdall:hotpath
func (sh *shard) touch(w *connWriter) {
	for _, t := range sh.touched {
		if t == w {
			return
		}
	}
	sh.touched = append(sh.touched, w)
}

// stageDecide stages one surviving decide for the batched forward pass:
// assemble the raw feature row into this inference's slot buffer and record
// who to answer. For joint models the group stages on its last member's
// arrival and every member shares the staged verdict. Allocation-free once
// buffers are warm (pinned by TestStagedDecideZeroAlloc).
//
//heimdall:hotpath
func (sh *shard) stageDecide(sm *servingModel, st *deviceState, dec decideRequest, enq int64, out *connWriter) {
	p := sm.m.JointSize()
	spec := sm.m.Spec()
	slot := len(sh.infs)
	if p <= 1 {
		if slot == len(sh.rowBufs) {
			sh.rowBufs = append(sh.rowBufs, make([]float64, 0, spec.Width()+p))
		}
		sh.rowBufs[slot] = spec.OnlineInto(sh.rowBufs[slot][:0], int(dec.queueLen), int32(dec.size), 0, 0, st.win)
		if sh.det != nil {
			sh.det.Observe(sh.rowBufs[slot])
			sh.detN++
		}
		sh.infs = append(sh.infs, pendingInf{id: dec.id, out: out, dev: dec.device})
		return
	}
	if len(st.sizes) == 0 {
		st.headQLen = dec.queueLen
		st.firstEnq = enq
	}
	st.sizes = append(st.sizes, int32(dec.size))
	if len(st.sizes) < p {
		st.pend = append(st.pend, pendMember{id: dec.id, out: out})
		sh.deferred++
		return
	}
	// Group complete: head features plus the remaining members' sizes,
	// the layout JointFeatures/training uses (§4.2).
	if slot == len(sh.rowBufs) {
		sh.rowBufs = append(sh.rowBufs, make([]float64, 0, spec.Width()+p))
	}
	sh.rowBufs[slot] = spec.OnlineInto(sh.rowBufs[slot][:0], int(st.headQLen), st.sizes[0], 0, 0, st.win)
	for _, sz := range st.sizes[1:] {
		sh.rowBufs[slot] = append(sh.rowBufs[slot], float64(sz))
	}
	if sh.det != nil {
		sh.det.Observe(sh.rowBufs[slot])
		sh.detN++
	}
	mOff := len(sh.members)
	sh.members = append(sh.members, st.pend...)
	sh.infs = append(sh.infs, pendingInf{id: dec.id, out: out, dev: dec.device, mOff: mOff, mLen: len(st.pend)})
	sh.deferred -= len(st.pend)
	st.pend = st.pend[:0]
	st.sizes = st.sizes[:0]
}

// decideStaged is phases B and C: one batched forward pass over every
// staged row, then answers in staging order — held joint members first,
// then the group head, exactly the fan-out order the sequential path used.
//
//heimdall:hotpath
func (sh *shard) decideStaged(sm *servingModel) {
	n := len(sh.infs)
	if n == 0 {
		return
	}
	if cap(sh.rows) < n {
		sh.rows = make([][]float64, 0, n)
	}
	sh.rows = sh.rows[:0]
	for i := 0; i < n; i++ {
		sh.rows = append(sh.rows, sh.rowBufs[i])
	}
	if len(sh.verdicts) < n {
		sh.verdicts = make([]bool, n)
	}
	sm.m.AdmitBatchInto(sh.rows, sh.verdicts[:n], sh.scr)
	tap := sh.srv.cfg.Decisions
	for i := 0; i < n; i++ {
		inf := &sh.infs[i]
		admit := sh.verdicts[i]
		if tap != nil {
			// Shadow-scoring tap: the raw row the verdict was inferred on,
			// before the slot buffer is recycled. Scalar/slice args only —
			// no boxing — and the tap contract forbids retaining row.
			tap.OnDecision(inf.dev, sh.rowBufs[i], admit)
		}
		if admit {
			sh.cnt.admits.Add(uint64(inf.mLen) + 1)
		} else {
			sh.cnt.declines.Add(uint64(inf.mLen) + 1)
		}
		for j := inf.mOff; j < inf.mOff+inf.mLen; j++ {
			sh.members[j].out.decideResp(sh.members[j].id, admit, 0, sm.version)
			sh.touch(sh.members[j].out)
		}
		inf.out.decideResp(inf.id, admit, 0, sm.version)
		sh.touch(inf.out)
	}
	// Drop connection references so an idle shard cannot pin closed conns.
	for i := range sh.members {
		sh.members[i] = pendMember{}
	}
	sh.members = sh.members[:0]
	for i := range sh.infs {
		sh.infs[i] = pendingInf{}
	}
	sh.infs = sh.infs[:0]
}

// flushExpired fails open every joint group older than the timeout: its
// held members are answered admit+FlagPartial and the group resets. The
// next decide for the device starts a fresh group.
func (sh *shard) flushExpired(now, timeout int64) {
	sm := sh.srv.model.Load()
	for _, st := range sh.devs {
		if len(st.sizes) == 0 || now-st.firstEnq < timeout {
			continue
		}
		sh.flushPartial(sm, st)
	}
}

// flushPartial answers a partial group's held members fail-open.
func (sh *shard) flushPartial(sm *servingModel, st *deviceState) {
	for i := range st.pend {
		st.pend[i].out.decideResp(st.pend[i].id, true, FlagPartial, sm.version)
		st.pend[i].out.flush()
	}
	sh.cnt.partial.Add(1)
	sh.cnt.admits.Add(uint64(len(st.pend)))
	sh.deferred -= len(st.pend)
	st.pend = st.pend[:0]
	st.sizes = st.sizes[:0]
}

// shutdown drains whatever is still queued (deciding normally), fails any
// held joint-group members open, and flushes every touched writer so no
// request is ever dropped — the graceful half of Close, which keeps the
// sockets writable until all workers return.
func (sh *shard) shutdown() {
	sm := sh.srv.model.Load()
	maxBatch := sh.srv.cfg.maxBatch()
	if sm != sh.scrFor {
		sh.scr = sm.m.NewBatchScratch(maxBatch)
		sh.scrFor = sm
	}
	now := sh.srv.now()
	for r := range sh.q {
		if r.kind == msgDecide {
			sh.srv.drained.Add(1)
		}
		sh.process(sm, &r, now)
		if len(sh.infs) >= maxBatch {
			sh.decideStaged(sm)
		}
	}
	sh.decideStaged(sm)
	for _, st := range sh.devs {
		if len(st.sizes) > 0 {
			sh.srv.drained.Add(uint64(len(st.pend)))
			sh.flushPartial(sm, st)
		}
	}
	for i, w := range sh.touched {
		w.flush()
		sh.touched[i] = nil
	}
	sh.touched = sh.touched[:0]
	sh.cnt.held.Store(0)
}
