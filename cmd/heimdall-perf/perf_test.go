package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// testModel trains a small model quickly: the tests check plumbing, not
// model quality.
func testModel(t *testing.T, joint int) []byte {
	t.Helper()
	cfg := core.DefaultConfig(3)
	cfg.Epochs, cfg.MaxTrainSamples, cfg.JointSize = 2, 2000, joint
	model, _, err := trainServed(cfg, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// testServer serves model in-process on a unix socket and returns a client
// for it. (The in-memory listener is for synchronous probes only: net.Pipe
// has no buffer, so a pipelined client and the server can block writing to
// each other.)
func testServer(t *testing.T, model []byte) *serve.Client {
	t.Helper()
	m, err := core.Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(m, serve.Config{})
	addr := "unix:" + filepath.Join(t.TempDir(), "s.sock")
	l, err := serve.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return c
}

// countWindow is a plan with no clock in it: the whole run is "inside the
// window" and ends after n decides.
func countWindow(n int) *window {
	hour := int64(time.Hour)
	return &window{base: time.Now(), start: 0, end: hour, slice: hour / nSlices, maxDecides: n}
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	a, b, other := buildScript(5, time.Second), buildScript(5, time.Second), buildScript(6, time.Second)
	if a.hash != b.hash {
		t.Fatalf("same seed, different scripts: %s vs %s", a.hash, b.hash)
	}
	if a.hash == other.hash {
		t.Fatal("different seeds gave the same script")
	}
	for d, log := range a.logs {
		if len(log) == 0 || len(log)%jointP != 0 {
			t.Errorf("device %d: %d decides per pass, want a positive multiple of %d", d, len(log), jointP)
		}
	}
	for i := 1; i < len(a.all); i++ {
		if a.all[i].ts < a.all[i-1].ts {
			t.Fatalf("message %d is out of time order", i)
		}
	}
	model := testModel(t, 1)
	ea, err := precompute(model, a.all, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := precompute(model, b.all, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.codes, eb.codes) {
		t.Fatal("same seed, different reference verdicts (or the device split changed them)")
	}
}

// TestPassTwoStandsForLaterPasses pins the claim `expected` rests on: a
// straight replay of three passes gives pass 3 the codes precompute stored
// for pass 2, for P = 1 and P = 4.
func TestPassTwoStandsForLaterPasses(t *testing.T) {
	sc := buildScript(5, time.Second)
	for _, joint := range []int{1, jointP} {
		model := testModel(t, joint)
		exp, err := precompute(model, sc.all, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReference(model)
		if err != nil {
			t.Fatal(err)
		}
		straight := make([]uint8, 3*exp.perPass)
		ref.replay(sc.all, len(straight), straight, replayOpts{stride: 1})
		for ord, want := range straight {
			if got := exp.at(ord); got != want {
				t.Fatalf("P=%d decide %d (pass %d): memo says %d, straight replay %d", joint, ord, ord/exp.perPass+1, got, want)
			}
		}
	}
}

// TestServerMatchesReference is the smoke: 2 000 decides through a real
// server, synchronous and pipelined for P = 1 and pipelined for P = 4, must
// equal the reference verdict for verdict.
func TestServerMatchesReference(t *testing.T) {
	sc := buildScript(5, time.Second)
	for _, tc := range []struct {
		name   string
		joint  int
		window int
	}{{"sync-p1", 1, 0}, {"pipelined-p1", 1, pipelineWindow}, {"pipelined-p4", jointP, pipelineWindow}} {
		t.Run(tc.name, func(t *testing.T) {
			model := testModel(t, tc.joint)
			exp, err := precompute(model, sc.all, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := newConnRun(testServer(t, model), sc.all, countWindow(2000), nil, 10)
			if tc.window > 0 {
				err = r.runPipelined(tc.window)
			} else {
				err = r.runSync()
			}
			if err != nil {
				t.Fatal(err)
			}
			tl, err := r.check(exp, model)
			if err != nil {
				t.Fatal(err)
			}
			if tl.attempted != 2000 || tl.failed != 0 || tl.mismatches != 0 || tl.unanswered != 0 {
				t.Fatalf("tally %+v", tl)
			}
		})
	}
}

// TestPartialFlushRegroups forces a partial flush — two decides of a P = 4
// group are sent and then waited for, so the server's GroupTimeout answers
// them FlagPartial — and checks that the reference, told of the flags,
// regroups from the next decide and agrees with every later verdict.
func TestPartialFlushRegroups(t *testing.T) {
	sc := buildScript(5, time.Second)
	model := testModel(t, jointP)
	exp, err := precompute(model, sc.all, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newConnRun(testServer(t, model), sc.all, countWindow(0), nil, 10)
	p := r.c.Pipeline(pipelineWindow)
	var firstDev uint32
	send := func(n int) {
		t.Helper()
		for sent := 0; sent < n; r.pos++ {
			m := r.next()
			if m.kind == kindComplete {
				if err := r.c.Complete(m.dev, m.lat, int(m.qlen), m.size); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if r.sent == 0 {
				firstDev = m.dev
			}
			t0 := r.w.now()
			if !r.begin(t0) {
				t.Fatal("window ended")
			}
			r.sent++
			r.ring[r.sent%ringSize] = ringEntry{id: uint64(r.sent), t0: t0}
			_, reaped, err := p.Submit(m.dev, int(m.qlen), m.size)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.reap(reaped, r.w.now()); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	drain := func() {
		t.Helper()
		rest, err := p.Drain(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.reap(rest, r.w.now()); err != nil {
			t.Fatal(err)
		}
	}
	send(2)
	drain() // returns only once GroupTimeout has flushed the held members
	partial := 0
	for _, b := range r.verd {
		if loggedFlags(b) == serve.FlagPartial {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no partial flush was provoked")
	}
	send(2000)
	drain()
	r.winLast = r.sent
	tl, err := r.check(exp, model)
	if err != nil {
		t.Fatal(err)
	}
	// The drain at the end flushes whatever groups were still filling.
	if tl.mismatches != 0 || tl.unanswered != 0 || tl.failed != 0 || tl.partial < int64(partial) {
		t.Fatalf("tally %+v after %d provoked partial answers on device %d", tl, partial, firstDev)
	}
	// Without the flags the precomputed passes must disagree somewhere on
	// the shifted device: the regrouping rule is doing real work.
	shifted := 0
	for ord, b := range r.verd {
		if loggedFlags(b) == 0 && exp.at(ord) != b&1 {
			shifted++
		}
	}
	t.Logf("%d partial answers; %d later verdicts differ from the unshifted passes", tl.partial, shifted)
}

// TestPacedProbeVerdictsJoinTheLog runs the open-loop probe's sender and
// receiver (two goroutines on one client) after a short synchronous run, at a
// rate that makes everything due after the first millisecond, and checks the
// whole log.
func TestPacedProbeVerdictsJoinTheLog(t *testing.T) {
	sc := buildScript(5, time.Second)
	model := testModel(t, 1)
	exp, err := precompute(model, sc.all, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newConnRun(testServer(t, model), sc.all, countWindow(200), nil, 10)
	if err := r.runSync(); err != nil {
		t.Fatal(err)
	}
	v := metrics{}
	if err := pacedProbe(v, r, 1_000_000, 1000); err != nil {
		t.Fatal(err)
	}
	tl, err := r.check(exp, model)
	if err != nil {
		t.Fatal(err)
	}
	if r.sent != 1200 || len(r.verd) != 1200 || tl.mismatches != 0 || tl.unanswered != 0 || tl.attempted != 200 {
		t.Fatalf("sent %d, logged %d, tally %+v", r.sent, len(r.verd), tl)
	}
	if v["serve.paced20k_p50_us"] <= 0 {
		t.Errorf("no latency reported: %v", v)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []int32{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {99, 49.6}, {12.5, 15}} {
		if got := percentile(xs, tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]int32{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	// p99 averages the ranks from 98.5 % to 99.5 %: with a step from 3 to 6 at
	// rank r it reads between the two, and moves with r.
	step := func(r int) []int32 {
		xs := make([]int32, 1000)
		for i := range xs {
			xs[i] = 3
			if i >= r {
				xs[i] = 6
			}
		}
		return xs
	}
	if got := p99(step(980)); got != 6 {
		t.Errorf("p99 above the step = %v, want 6", got)
	}
	if got := p99(step(999)); got != 3 {
		t.Errorf("p99 below the step = %v, want 3", got)
	}
	if a, b := p99(step(989)), p99(step(991)); !(3 < b && b < a && a < 6) || a-b > 0.6 {
		t.Errorf("p99 around the step = %v, %v: want it to move a little with the step", a, b)
	}
	if got := p99([]int32{7}); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	in := []float64{5, 1, 9, 3, 100}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 5 || in[4] != 100 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	// One wild set-up does not move the median.
	if got := median([]float64{36, 35, 37, 36, 900}); got != 36 {
		t.Errorf("median = %v, want 36", got)
	}
	// quiet: the mean of the best quarter, whichever end is the good one.
	slices15 := []float64{50, 41, 60, 40, 45, 900, 47, 42, 43, 70, 44, 46, 48, 49, 55}
	if got := quiet(slices15, lowest); got != (40+41+42)/3.0 {
		t.Errorf("quiet(lowest) = %v, want 41", got)
	}
	if got := quiet(slices15, highest); got != (900+70+60)/3.0 {
		t.Errorf("quiet(highest) = %v", got)
	}
	if got := quiet([]float64{7, 3}, lowest); got != 3 {
		t.Errorf("quiet of two = %v, want 3", got)
	}
	if slices15[0] != 50 || quiet(nil, lowest) != 0 {
		t.Error("quiet reordered its input or invented a value")
	}
}

func TestSliceOf(t *testing.T) {
	w := &window{start: 100, slice: 10, end: 100 + nSlices*10}
	for _, tc := range []struct {
		t    int64
		want int
	}{{0, -1}, {99, -1}, {100, 0}, {109, 0}, {110, 1}, {100 + nSlices*10 - 1, nSlices - 1}, {100 + nSlices*10, nSlices}} {
		if got := w.sliceOf(tc.t); got != tc.want {
			t.Errorf("sliceOf(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

// TestTurnSelfTime pins the span arithmetic: a turn's self time is its
// duration minus its flush, wait and reap children.
func TestTurnSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	tr.on = true
	tr.firstIO = -1
	tr.io(spanFlush, 100, 130) // opens turn 1
	tr.io(spanWait, 140, 200)
	tr.encode(90, 260, 7) // the call began at 90; its encode part ends at the first write
	tr.endTurn(260)       // reap = 200..260
	if tr.sum[spanTurn] != 160 || tr.sum[spanFlush] != 30 || tr.sum[spanWait] != 60 || tr.sum[spanReap] != 60 {
		t.Fatalf("sums %v", tr.sum)
	}
	if tr.self != 10 {
		t.Fatalf("self = %d, want 10", tr.self)
	}
	if tr.sum[spanEncode] != 10 {
		t.Fatalf("encode = %d, want 10", tr.sum[spanEncode])
	}
	turn := tr.spans[0]
	if turn.kind != spanTurn || turn.start != 100 || turn.end != 260 || turn.id != 1 {
		t.Fatalf("turn span %+v", turn)
	}
	for _, s := range tr.spans[1:4] {
		if s.kind != spanEncode && s.parent != 0 {
			t.Errorf("%s span is not a child of the turn: %+v", spanNames[s.kind], s)
		}
	}
	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := writeTrace(path, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(tr.spans) {
		t.Fatalf("%d lines for %d spans", len(lines), len(tr.spans))
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

// TestMetricsMatchBenchmarkJSON keeps the code's metric tables and
// BENCHMARK.json in step, and every name and unit inside the contract's
// alphabet.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []benchmarkMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			l := listed[i]
			if d.name != l.Name || d.unit != l.Unit || d.better != l.Better {
				t.Errorf("%s[%d]: code has %s/%s/%s, BENCHMARK.json %s/%s/%s", kind, i, d.name, d.unit, d.better, l.Name, l.Unit, l.Better)
			}
			if bounded != (l.Bound != nil) || (bounded && (*l.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in code, %v in BENCHMARK.json", kind, d.name, d.bound, l.Bound)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s (%s): bad or repeated name or unit", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd, true)
	check("per_layer", perLayer, bf.PerLayer, false)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if w.name != bf.Workloads[i].Name || w.why != bf.Workloads[i].Why || !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %d: %q in code, %q in BENCHMARK.json", i, w.name, bf.Workloads[i].Name)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("the contract wants a setup_s metric in s, lower is better")
	}
	// A run reports exactly the listed names, whatever it measured.
	got := metrics{"decide_p50_us": 1, "not.listed": 2}.fill(endToEnd)
	if len(got) != len(endToEnd) || got["decide_p50_us"].Value != 1 || got["decide_p50_us"].Unit != "us" {
		t.Errorf("fill: %v", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, failed float64) string {
		vals := metrics{}
		for _, d := range endToEnd {
			vals[d.name] = 10
		}
		vals["decide_p50_us"] = p50
		doc := document{Runs: []*result{{Workload: "decide-sync", Correct: true, Attempted: 1000, Failed: int64(failed), Values: vals}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 0)
	var out bytes.Buffer
	if err := compareFiles(base, write("same.json", 10.5, 0), &out); err != nil {
		t.Fatalf("within the bound, yet: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "decide_p50_us") || !strings.Contains(out.String(), "+5.00%") {
		t.Errorf("table lacks the metric row:\n%s", out.String())
	}
	if err := compareFiles(base, write("slow.json", 13, 0), &out); err == nil {
		t.Error("a 30% worse p50 passed")
	}
	if err := compareFiles(base, write("fast.json", 5, 0), &out); err != nil {
		t.Errorf("a better p50 failed: %v", err)
	}
	if err := compareFiles(base, write("failing.json", 10, 3), &out); err == nil {
		t.Error("a higher failed share passed")
	}
}
