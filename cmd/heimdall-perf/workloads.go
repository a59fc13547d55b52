package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/iolog"
	"repro/internal/serve"
)

// options are the command-line settings a workload run needs.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	buildDir string // server binary, model file, socket
	outDir   string // trace files
	cpus     cpuSplit
}

// result is one (workload, pass) outcome.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Samples   int64  `json:"samples"` // latency samples behind the timings
	// Slices holds the per-slice values the reported figures were taken from.
	Slices    map[string][]float64 `json:"slices,omitempty"`
	Detail    string               `json:"detail,omitempty"`
	ServeArgv string               `json:"serve_argv,omitempty"`
	Script    string               `json:"script_hash,omitempty"`
	Values    metrics              `json:"values"`
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up is the one the run measures against.
const setupReps = 3

// decideShape is what distinguishes the three decide-* workloads.
type decideShape struct {
	conns  int // connections, one goroutine each
	window int // decides in flight per connection; 0 = synchronous
	joint  int // JointSize of the served model
	rate   int // expected decides/s per connection, for sample-buffer sizing only
}

func shapeOf(workload string) decideShape {
	conns := 2
	if n := runtime.NumCPU(); n < conns {
		conns = n
	}
	switch workload {
	case "decide-sync":
		return decideShape{conns: 1, joint: 1, rate: 60_000}
	case "decide-joint":
		return decideShape{conns: conns, window: pipelineWindow, joint: jointP, rate: 500_000}
	default:
		return decideShape{conns: conns, window: pipelineWindow, joint: 1, rate: 300_000}
	}
}

// served is everything one set-up of a decide-* workload produces.
type served struct {
	model  []byte
	script *script
	msgs   [][]msg     // per connection
	exp    []*expected // per connection
	srv    *child
	trainS float64
}

// setUpDecide is the whole path from nothing to a server that has answered
// its first Stats call: train and save the model, generate the script,
// compute the reference verdicts, spawn the child.
func setUpDecide(o options, sh decideShape, bin string) (*served, error) {
	model, took, err := trainServed(servedConfig(o.seed, sh.joint), servedTrainDur)
	if err != nil {
		return nil, err
	}
	s := &served{model: model, trainS: took.Seconds(), script: buildScript(o.seed, scriptDur)}
	s.msgs = make([][]msg, sh.conns)
	s.exp = make([]*expected, sh.conns)
	errs := make([]error, sh.conns)
	// All CPUs compute reference verdicts: connections side by side, and the
	// devices of one connection shared out when CPUs are left over.
	workers := max(1, runtime.NumCPU()/sh.conns)
	var wg sync.WaitGroup
	for k := 0; k < sh.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.msgs[k] = s.script.forConn(k, sh.conns)
			s.exp[k], errs[k] = precompute(model, s.msgs[k], workers)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	s.srv, err = startChild(bin, o.buildDir, model, o.cpus)
	return s, err
}

// snapshot is the server- and generator-side state at one edge of the window.
type snapshot struct {
	stats  serve.Stats
	genCPU float64
}

func takeSnapshot(srv *child) (snapshot, error) {
	var s snapshot
	var err error
	if s.stats, err = srv.ctl.Stats(); err != nil {
		return s, err
	}
	s.genCPU, err = selfCPU()
	return s, err
}

// runDecide runs one decide-* workload: set up, warm up, measure one window
// against the child server, check every verdict, and (traced) run the probes
// that ride on this workload.
func runDecide(workload string, o options, bin string) (res *result, err error) {
	sh := shapeOf(workload)
	var setups, trains []float64
	var sv *served
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if sv, err = setUpDecide(o, sh, bin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		trains = append(trains, sv.trainS)
		if rep < setupReps-1 {
			if err := sv.srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	srv := sv.srv
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop() // an earlier error is already being returned
		}
	}()

	ref, err := newReference(sv.model)
	if err != nil {
		return nil, err
	}
	// model_auc: the served model against the simulator's ground truth on the
	// first quarter of every device's log, averaged — one device alone moves
	// the figure by several points from seed to seed.
	var auc float64
	for _, log := range sv.script.logs {
		head := log[:len(log)/4]
		auc += ref.m.Evaluate(head, iolog.GroundTruth(head)).ROCAUC / scriptDevices
	}

	runtime.GC()
	w := newWindow(o.seconds)
	clients, tracers, err := dialConns(srv.addr, sh.conns, w, o.traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	runs := make([]*connRun, sh.conns)
	for k := range runs {
		var tr *tracer
		if o.traced {
			tr = tracers[k]
		}
		runs[k] = newConnRun(clients[k], sv.msgs[k], w, tr, sh.rate)
	}
	// The server's CPU clock is read at every slice boundary (a sleeping
	// timer is at most a millisecond or two late on a 1 s slice); the Stats
	// counters and the generator's own CPU at the window's two edges.
	var before, after snapshot
	var srvUser, srvSys [nSlices + 1]float64
	var rss float64
	pid := srv.cmd.Process.Pid
	err = drive(runs, sh.window, func(i int) (err error) {
		if srvUser[i], srvSys[i], err = procCPU(pid); err != nil {
			return err
		}
		switch i {
		case 0:
			before, err = takeSnapshot(srv)
		case nSlices:
			if after, err = takeSnapshot(srv); err == nil {
				rss, err = procHWM(pid)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	res = &result{Workload: workload, Traced: o.traced, Values: metrics{}, Script: sv.script.hash, ServeArgv: strings.Join(srv.argv, " ")}
	if o.traced && workload == "decide-sync" {
		if err := pacedProbe(res.Values, runs[0], pacedRate, pacedDecides); err != nil {
			return nil, err
		}
	}
	v := res.Values
	st := mergeSlices(runs, w)
	if st.samples == 0 {
		return nil, errors.New("no verdict arrived inside the window")
	}
	res.Samples = int64(st.samples)
	var total tally
	for k, r := range runs {
		t, err := r.check(sv.exp[k], sv.model)
		if err != nil {
			return nil, err
		}
		total.add(t)
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.mismatches == 0 && total.unanswered == 0
	if !res.Correct {
		res.Detail = fmt.Sprintf("%d verdicts differ from the reference, %d decides unanswered; %s",
			total.mismatches, total.unanswered, total.first)
	}

	decides := float64(st.samples)
	var cpuPerDecide []float64
	for i := 0; i < nSlices; i++ {
		cpu := srvUser[i+1] + srvSys[i+1] - srvUser[i] - srvSys[i]
		if n := st.perSec[i] * float64(w.slice) / 1e9; n > 0 {
			cpuPerDecide = append(cpuPerDecide, cpu*1e6/n)
		}
	}
	res.Slices = map[string][]float64{"decide_p50_ns": st.p50[:], "decide_p99_ns": st.p99[:], "decides_per_s": st.perSec[:], "cpu_us_per_decide": cpuPerDecide}
	v["setup_s"] = median(setups)
	v["decide_p50_us"] = quiet(st.p50[:], lowest) / 1e3
	v["decide_p99_us"] = quiet(st.p99[:], lowest) / 1e3
	v["decides_per_s"] = quiet(st.perSec[:], highest)
	v["cpu_us_per_decide"] = quiet(cpuPerDecide, lowest)
	v["rss_mb"] = rss
	v["train_s"] = median(trains)
	v["model_auc"] = auc

	if o.traced {
		user, sys := srvUser[nSlices]-srvUser[0], srvSys[nSlices]-srvSys[0]
		if user+sys > 0 {
			v["serve.server_user_cpu_share"] = user / (user + sys)
		}
		serverLayer(v, before, after, decides, srv.startMS, st)
		clientLayer(v, tracers, st)
		if err := writeTrace(filepath.Join(o.outDir, "trace-"+workload+".jsonl"), tracers); err != nil {
			return nil, err
		}
		switch workload {
		case "decide-sync":
			v["bench.timer_granularity_us"] = timerGranularity()
			err = rttProbes(v, sv, o.buildDir)
		case "decide-pipelined":
			err = inProcessProbes(v, sv, o.seed)
		}
		if err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// serverLayer fills the server-side per-layer metrics from the Stats and
// /proc deltas across the window.
func serverLayer(v metrics, before, after snapshot, decides, startMS float64, st sliceStats) {
	a, b := after.stats, before.stats
	var batches float64
	for i := range a.BatchHist {
		batches += float64(a.BatchHist[i] - b.BatchHist[i])
	}
	if batches > 0 {
		// A batch holds decides and completions alike; the script sends one
		// completion per decide.
		v["serve.batch_mean"] = 2 * float64(a.Decisions()-b.Decisions()) / batches
		v["serve.batch1_share"] = float64(a.BatchHist[0]-b.BatchHist[0]) / batches
	}
	if d := float64(a.Decisions() - b.Decisions()); d > 0 {
		v["serve.decline_share"] = float64(a.Declines-b.Declines) / d
	}
	v["serve.sheds"] = float64(a.Sheds - b.Sheds)
	v["serve.deadline_sheds"] = float64(a.DeadlineSheds - b.DeadlineSheds)
	v["serve.partial_flushes"] = float64(a.PartialFlush - b.PartialFlush)
	v["serve.breaker_answers"] = float64(a.BreakerOpen - b.BreakerOpen)
	v["serve.write_drops"] = float64(a.WriteDrops - b.WriteDrops)
	v["serve.conn_drops"] = float64(a.ConnDrops - b.ConnDrops)
	v["serve.gen_cpu_us_per_decide"] = (after.genCPU - before.genCPU) * 1e6 / decides
	v["serve.start_ms"] = startMS
	all := st.window()
	v["serve.rtt_p999_us"] = percentile(all, 99.9) / 1e3
	v["serve.rtt_max_us"] = percentile(all, 100) / 1e3
}

// clientLayer fills the client-side per-layer metrics from the span sums of
// the traced slices, each as ns (or calls) per decide reaped in them, and the
// tracing overhead from the throughput of traced against untraced slices.
func clientLayer(v metrics, tracers []*tracer, st sliceStats) {
	var sum, n [spanKinds]float64
	var self float64
	for _, t := range tracers {
		for k := range sum {
			sum[k] += float64(t.sum[k])
			n[k] += float64(t.n[k])
		}
		self += float64(t.self)
	}
	if d := n[spanDecide]; d > 0 {
		v["serve.client.encode_ns"] = sum[spanEncode] / d
		v["serve.client.flush_ns"] = sum[spanFlush] / d
		v["serve.client.wait_ns"] = sum[spanWait] / d
		v["serve.client.reap_ns"] = sum[spanReap] / d
		v["serve.client.turn_self_ns"] = self / d
		v["serve.flushes_per_decide"] = n[spanFlush] / d
		v["serve.waits_per_decide"] = n[spanWait] / d
	}
	var plain, traced []float64
	for s, perSec := range st.perSec {
		if tracedSlice(s) {
			traced = append(traced, perSec)
		} else {
			plain = append(plain, perSec)
		}
	}
	if p := quiet(plain, highest); p > 0 {
		v["bench.trace_overhead_share"] = 1 - quiet(traced, highest)/p
	}
}
