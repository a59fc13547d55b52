package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/lifecycle"
	"repro/internal/nn"
	"repro/internal/serve"
)

// The probes are ungated per-layer measurements that ride on a traced run
// after its window: they isolate one layer (or one transport) at a time so a
// change to an end-to-end metric can be traced to the layer that moved.

// timerGranularity measures what a 20 µs sleep really takes here. It is why
// no end-to-end metric is paced by a timer.
func timerGranularity() float64 {
	xs := make([]int32, 200)
	for i := range xs {
		start := time.Now()
		time.Sleep(20 * time.Microsecond)
		xs[i] = int32(time.Since(start))
	}
	slices.Sort(xs)
	return percentile(xs, 50) / 1e3
}

const (
	pacedRate    = 20_000  // decides per second
	pacedDecides = 100_000 // 5 s of them
)

// pacedProbe is the open-loop probe: decide-sync's connection goes on through
// the script for n decides at a fixed rate (20 k decides/s for 5 s in a real
// run), whatever the server does. The
// sender sleeps 1 ms at a time and then releases everything that has come
// due; a second goroutine only receives (the client's read and write halves
// share no fields). Latency is timed from each decide's due time, so a stall
// is charged to every decide it delays, and the lag of the sender itself is
// reported beside it. The verdicts join the connection's log and are checked
// with the rest.
func pacedProbe(v metrics, r *connRun, rate, n int) error {
	first := r.sent
	due := make([]int64, n)  // written by the sender
	sent := make([]int64, n) // written by the sender
	got := make([]int64, n)  // written by the receiver
	verd := make([]uint8, n) // written by the receiver
	base := time.Now()

	var recvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			vd, err := r.c.Recv()
			if err != nil {
				recvErr = err
				return
			}
			k := int(vd.ID) - 1 - first
			if k < 0 || k >= n || verd[k] != 0 {
				recvErr = fmt.Errorf("paced probe: unexpected verdict id %d", vd.ID)
				return
			}
			got[k] = int64(time.Since(base))
			verd[k] = logByte(vd)
		}
	}()

	sendErr := func() error {
		for i := 0; i < n; {
			time.Sleep(time.Millisecond)
			now := int64(time.Since(base))
			for ; i < n && int64(i)*int64(time.Second)/int64(rate) <= now; r.pos++ {
				m := r.next()
				if m.kind == kindComplete {
					if err := r.c.Complete(m.dev, m.lat, int(m.qlen), m.size); err != nil {
						return err
					}
					continue
				}
				due[i] = int64(i) * int64(time.Second) / int64(rate)
				r.sent++
				if err := r.c.Send(uint64(r.sent), m.dev, int(m.qlen), m.size); err != nil {
					return err
				}
				sent[i] = int64(time.Since(base))
				i++
			}
			if err := r.c.Flush(); err != nil {
				return err
			}
		}
		return nil
	}()
	if sendErr != nil {
		// The receiver would wait for verdicts that were never asked for.
		_ = r.c.Close()
	}
	wg.Wait()
	if err := errors.Join(sendErr, recvErr); err != nil {
		return err
	}

	r.verd = append(r.verd, verd...)
	lat, late := make([]int32, n), make([]int32, n)
	shed := 0
	for i := range lat {
		lat[i], late[i] = int32(got[i]-due[i]), int32(sent[i]-due[i])
		if loggedFlags(verd[i]) != 0 {
			shed++
		}
	}
	slices.Sort(lat)
	slices.Sort(late)
	v["serve.paced20k_p50_us"] = percentile(lat, 50) / 1e3
	v["serve.paced20k_p99_us"] = p99(lat) / 1e3
	v["serve.paced20k_late_p50_us"] = percentile(late, 50) / 1e3
	v["serve.paced20k_shed_share"] = float64(shed) / float64(n)
	return nil
}

// memListener is a net.Listener whose connections are net.Pipe pairs: the
// serve code path with no kernel under it. A pipe has no buffer, so it suits
// a synchronous client only — a pipelined one and the server can end up
// blocked writing to each other.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// decider is the part of a client an RTT probe drives.
type decider struct {
	decide   func(m *msg) (serve.Verdict, error)
	complete func(m *msg) error
	close    func() error
}

func plainDecider(c *serve.Client) decider {
	return decider{
		decide:   func(m *msg) (serve.Verdict, error) { return c.Decide(m.dev, int(m.qlen), m.size) },
		complete: func(m *msg) error { return c.Complete(m.dev, m.lat, int(m.qlen), m.size) },
		close:    c.Close,
	}
}

func resilientDecider(c *serve.ResilientClient) decider {
	return decider{
		decide:   func(m *msg) (serve.Verdict, error) { return c.Decide(m.dev, int(m.qlen), m.size), nil },
		complete: func(m *msg) error { c.Complete(m.dev, m.lat, int(m.qlen), m.size); return nil },
		close:    c.Close,
	}
}

const rttProbeFor = 2 * time.Second

// rttProbes measures the synchronous decide round trip against an in-process
// server reached four ways: over an in-memory listener, a unix socket, TCP
// loopback, and a unix socket through ResilientClient. unix − inmem is what
// the kernel adds; decide-sync's decide_p50_us − unix is what the process
// boundary adds; resilient − unix is what the hardened client costs.
//
// The four probes walk one stream over one server, one after the other, so
// every verdict is still checked against the script's reference. A probe
// stops right after a verdict, with no completion buffered, which orders
// everything it sent before whatever the next connection sends.
func rttProbes(v metrics, sv *served, dir string) (err error) {
	m, err := core.Load(bytes.NewReader(sv.model))
	if err != nil {
		return err
	}
	srv := serve.NewServer(m, serve.Config{})
	mem := newMemListener()
	sock := filepath.Join(dir, "probe-"+strconv.Itoa(os.Getpid())+".sock")
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	unixL, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	tcpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = unixL.Close()
		return err
	}
	listeners := []net.Listener{mem, unixL, tcpL}
	served := make(chan error, len(listeners)) // one result per Serve call
	for _, l := range listeners {
		go func(l net.Listener) { served <- srv.Serve(l) }(l)
	}
	defer func() {
		err = errors.Join(err, srv.Close())
		for range listeners {
			err = errors.Join(err, <-served)
		}
	}()

	msgs, exp := sv.msgs[0], sv.exp[0]
	pos, ord := 0, 0
	probe := func(d decider) (float64, error) {
		lat := make([]int32, 0, 200_000)
		for start := time.Now(); time.Since(start) < rttProbeFor; pos++ {
			if pos == len(msgs) {
				pos = 0
			}
			mm := &msgs[pos]
			if mm.kind == kindComplete {
				if err := d.complete(mm); err != nil {
					return 0, err
				}
				continue
			}
			t0 := time.Now()
			vd, err := d.decide(mm)
			if err != nil {
				return 0, err
			}
			lat = append(lat, int32(time.Since(t0)))
			want := exp.at(ord) == refAdmit
			if vd.Flags != 0 || vd.Admit != want {
				return 0, fmt.Errorf("decide %d: server said admit=%v flags=%#x, reference admit=%v", ord, vd.Admit, vd.Flags, want)
			}
			ord++
		}
		slices.Sort(lat)
		return percentile(lat, 50) / 1e3, d.close()
	}

	memConn, err := mem.dial()
	if err != nil {
		return err
	}
	unixC, err := serve.Dial("unix:" + sock)
	if err != nil {
		return err
	}
	tcpC, err := serve.Dial("tcp:" + tcpL.Addr().String())
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		d    decider
	}{
		{"serve.rtt_inmem_p50_us", plainDecider(serve.NewClient(memConn))},
		{"serve.rtt_unix_p50_us", plainDecider(unixC)},
		{"serve.rtt_tcp_p50_us", plainDecider(tcpC)},
		{"serve.rtt_resilient_p50_us", resilientDecider(serve.DialResilient("unix:"+sock, serve.ClientConfig{}))},
	} {
		if v[p.name], err = probe(p.d); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// probeRows is how many of the script's decides the in-process probes run
// over.
const probeRows = 1 << 18

// perRow times f over n rows and returns ns per row.
func perRow(n int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(n)
}

// inProcessProbes times the layers under a decide with no wire and no server
// around them, on the raw rows and completions of the script itself:
// feature-window push and row assembly, offline extraction, every rung of
// the inference ladder at batch 1 and 32, and the model's admit path; then
// the lifecycle hooks and one retraining round, which the default server
// does not run.
func inProcessProbes(v metrics, sv *served, seed int64) error {
	ref, err := newReference(sv.model)
	if err != nil {
		return err
	}
	m := ref.m
	spec := m.Spec()
	msgs := sv.script.all

	// The raw rows of the stream's first probeRows decides, in order.
	raw := make([][]float64, 0, probeRows)
	devs := make([]uint32, 0, probeRows)
	admits := make([]bool, 0, probeRows)
	ref.onRow = func(dev uint32, row []float64, admit bool) {
		raw = append(raw, append([]float64(nil), row...))
		devs = append(devs, dev)
		admits = append(admits, admit)
	}
	ref.replay(msgs, probeRows, make([]uint8, probeRows), replayOpts{stride: 1})
	var decides, completes []*msg
	for i := range msgs {
		if msgs[i].kind == kindDecide {
			decides = append(decides, &msgs[i])
		} else {
			completes = append(completes, &msgs[i])
		}
	}

	// feature
	win := feature.NewWindow(spec.Depth)
	const calls = 1 << 20
	v["feature.push_ns"] = perRow(calls, func() {
		for i := 0; i < calls; i++ {
			c := completes[i%len(completes)]
			win.Push(feature.Hist{Latency: float64(c.lat), QueueLen: float64(c.qlen), Thpt: float64(c.size)})
		}
	})
	row := make([]float64, 0, spec.Width())
	v["feature.row_ns"] = perRow(calls, func() {
		for i := 0; i < calls; i++ {
			d := decides[i%len(decides)]
			row = spec.OnlineInto(row[:0], int(d.qlen), d.size, 0, 0, win)
		}
	})
	ios := 0
	for _, log := range sv.script.logs {
		ios += len(log)
	}
	v["feature.extract_ns_io"] = perRow(ios, func() {
		for _, log := range sv.script.logs {
			feature.Extract(log, spec)
		}
	})

	// nn: the three rungs on min-max scaled copies of the rows.
	m8, err := core.Load(bytes.NewReader(sv.model))
	if err != nil {
		return err
	}
	if err := m8.EnableInt8(raw[:4096]); err != nil {
		return err
	}
	scaled := make([][]float64, len(raw))
	for i, r := range raw {
		scaled[i] = append([]float64(nil), r...)
	}
	feature.FitTransform(feature.NewScaler(feature.ScaleMinMax), scaled)
	rungs := []struct {
		name string
		p    nn.Predictor
	}{{"float", m.Net()}, {"int32", m.Quantized()}, {"int8", m8.Quantized8()}}
	out := make([]float64, 32)
	for _, rung := range rungs {
		for _, b := range []int{1, 32} {
			scr := nn.NewScratch(rung.p, b)
			v[fmt.Sprintf("nn.%s_b%d_ns_row", rung.name, b)] = perRow(len(scaled), func() {
				for i := 0; i+b <= len(scaled); i += b {
					rung.p.PredictBatchInto(scaled[i:i+b], out, scr)
				}
			})
		}
	}

	// core: the admit path (scale + default rung + threshold), and how often
	// each integer rung's verdict equals the float rung's.
	verdicts := func(mod *core.Model, b int) ([]bool, float64) {
		scr := mod.NewBatchScratch(b)
		got := make([]bool, len(raw))
		ns := perRow(len(raw), func() {
			for i := 0; i+b <= len(raw); i += b {
				mod.AdmitBatchInto(raw[i:i+b], got[i:i+b], scr)
			}
		})
		return got, ns
	}
	_, v["core.admit_b1_ns_row"] = verdicts(m, 1)
	_, v["core.admit_b32_ns_row"] = verdicts(m, 32)
	v["core.model_bytes"] = float64(len(sv.model))
	float, _ := verdicts(m.WithPredictor(m.Net()), 32)
	for _, rung := range rungs[1:] {
		got, _ := verdicts(m.WithPredictor(rung.p), 32)
		agree := 0
		for i := range got {
			if got[i] == float[i] {
				agree++
			}
		}
		v["nn."+rung.name+"_agree_share"] = float64(agree) / float64(len(got))
	}

	// lifecycle: the harvest hooks at the rate the server would call them,
	// then one training round — configured as heimdall-serve -managed does.
	train := core.DefaultConfig(seed)
	train.Labeling = core.LabelCutoffSize
	train.SearchThresholds = false
	mgr, err := lifecycle.New(lifecycle.Config{Seed: seed, Train: train, OnlineRecalibration: true}, m, nil)
	if err != nil {
		return err
	}
	h := mgr.Harvester()
	v["lifecycle.on_completion_ns"] = perRow(len(completes), func() {
		for _, c := range completes {
			h.OnCompletion(c.dev, c.lat, c.qlen, uint32(c.size))
		}
	})
	v["lifecycle.on_decision_ns"] = perRow(len(raw), func() {
		for i, r := range raw {
			h.OnDecision(devs[i], r, admits[i])
		}
	})
	start := time.Now()
	rep := mgr.Tick()
	v["lifecycle.tick_s"] = time.Since(start).Seconds()
	if !rep.Trained {
		return fmt.Errorf("lifecycle probe: the tick trained nothing: %s", rep.Reason)
	}
	return nil
}
