package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

const (
	// offlineDur is the length of the heavy and the light trace. Each is
	// split in half, 5 s to train on and 5 s to replay. A 5 s log holds about
	// 29 k reads, under the default pipeline's 50 k sample cap, so the two
	// trainings take about 15 s; logs shorter than that gave models whose AUC
	// ran from 0.64 to 0.93 with the seed.
	offlineDur = 10 * time.Second
	// replaySeeds is how many device seeds the replay repetitions cycle
	// through; repetitions that share one must agree to the nanosecond.
	replaySeeds = 4
)

// offline is one set-up of the train-replay workload: a heavy and a light
// trace in the style of §6.1 (same style, light at 0.85× the rate, bursting
// in phase), each on its own Samsung970Pro, split 50:50.
type offline struct {
	devices  []ssd.Config
	train    []*trace.Trace
	test     []*trace.Trace
	logs     [][]iolog.Record // per device: always-admit log of the train half
	testRead [][]iolog.Record // per device: reads of the test half, for model_auc
	reads    int              // reads in the two test halves
	base     replay.Result    // always-admit replay of the test halves

	genNS, collectNS int64 // time in trace.Generate / replay.CollectLog
	genIOs, logIOs   int
}

func setUpOffline(seed int64) *offline {
	heavyCfg := trace.MSRStyle(seed, offlineDur)
	heavyCfg.BurstSeed = seed + 7717
	lightCfg := heavyCfg
	lightCfg.Seed += 5
	lightCfg.MeanIOPS *= 0.85
	o := &offline{devices: []ssd.Config{ssd.Samsung970Pro(), ssd.Samsung970Pro()}}
	start := time.Now()
	heavy, light := trace.Generate(heavyCfg), trace.Generate(lightCfg)
	o.genNS, o.genIOs = int64(time.Since(start)), heavy.Len()+light.Len()
	for _, tr := range []*trace.Trace{heavy, light} {
		a, b := tr.SplitHalf()
		o.train, o.test = append(o.train, a), append(o.test, b)
	}
	for d := range o.devices {
		start := time.Now()
		_, log := replay.CollectLog(o.train[d], o.devices[d], seed+int64(d)*7)
		o.collectNS += int64(time.Since(start))
		o.logIOs += len(log)
		o.logs = append(o.logs, log)
		_, tlog := replay.CollectLog(o.test[d], o.devices[d], seed+999+int64(d))
		o.testRead = append(o.testRead, iolog.Reads(tlog))
		o.reads += len(o.testRead[d])
	}
	o.base = o.replay(seed, 0, policy.Baseline{})
	return o
}

// replay runs the test halves under sel on fresh devices. Repetition r uses
// device seed seed+999+r.
func (o *offline) replay(seed int64, r int, sel policy.Selector) replay.Result {
	return replay.Run(o.test, replay.Options{Devices: o.devices, Seed: seed + 999 + int64(r), Selector: sel})
}

// timedSelector times every admission decision of a replay — the in-process
// counterpart of a decide round trip — and, on a traced repetition, keeps a
// span per decision. A decision that also consults the reroute target's
// model (§4.2) makes two inferences; its time is sampled per inference, or
// the tail percentile would measure the seed's share of such decisions
// (2–9 %) instead of the code.
type timedSelector struct {
	inner *policy.Heimdall
	base  time.Time
	lat   []int32 // ns per inference, one sample per decision
	tr    *tracer
}

func (t *timedSelector) Name() string { return t.inner.Name() }

func (t *timedSelector) Validate(replicas int) error { return t.inner.Validate(replicas) }

func (t *timedSelector) Decide(now int64, size int32, primary int, views []policy.View) policy.Decision {
	start := int64(time.Since(t.base))
	d := t.inner.Decide(now, size, primary, views)
	end := int64(time.Since(t.base))
	t.lat = append(t.lat, int32(end-start)/int32(max(d.Inferences, 1)))
	if t.tr != nil && t.tr.on {
		t.tr.add(span{kind: spanPolicy, start: start, end: end, parent: -1})
	}
	return d
}

// runTrainReplay is the offline workload: per device, train the default
// pipeline on the always-admit log of the train half; then replay the test
// halves under policy.Heimdall again and again until the window is used up.
func runTrainReplay(o options) (*result, error) {
	// This set-up takes a tenth of a second, so it can be repeated more often
	// than the decide workloads' for a steadier median.
	var setups []float64
	var off *offline
	for rep := 0; rep < 2*setupReps+1; rep++ {
		start := time.Now()
		off = setUpOffline(o.seed)
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC() // drop the repetition before: rss_mb is a high-water mark
	}
	res := &result{Workload: "train-replay", Traced: o.traced, Correct: true, Values: metrics{}}
	v := res.Values
	fail := func(format string, args ...any) {
		res.Correct = false
		res.Failed++
		if res.Detail == "" {
			res.Detail = fmt.Sprintf(format, args...)
		}
	}

	base := time.Now()
	var tr *tracer
	if o.traced {
		tr = newTracer(base)
		tr.on = true
	}
	stage := func(kind uint8, f func()) float64 {
		start := time.Since(base)
		f()
		end := time.Since(base)
		if tr != nil {
			tr.add(span{kind: kind, start: int64(start), end: int64(end), parent: -1})
		}
		return (end - start).Seconds()
	}

	models := make([]*core.Model, len(off.devices))
	var trainS float64
	for d := range models {
		var err error
		trainS += stage(spanTrain, func() { models[d], err = core.Train(off.logs[d], core.DefaultConfig(o.seed+int64(d))) })
		if err != nil {
			return nil, err
		}
	}

	runtime.GC()
	sel := &timedSelector{inner: &policy.Heimdall{Models: models}, base: base, tr: tr, lat: make([]int32, 0, off.reads)}
	var p50s, p99s, rates, cpus, tracedRates, plainRates []float64
	var first [replaySeeds]replay.Result
	for r := 0; time.Since(base).Seconds() < o.seconds || r < replaySeeds+1; r++ {
		// A traced run records decision spans on every other repetition, so
		// the two halves see the same machine.
		if tr != nil {
			tr.on = r%2 == 1
		}
		sel.lat = sel.lat[:0]
		cpuBefore, err := selfCPU()
		if err != nil {
			return nil, err
		}
		var got replay.Result
		wall := stage(spanReplay, func() { got = off.replay(o.seed, r%replaySeeds, sel) })
		cpuAfter, err := selfCPU()
		if err != nil {
			return nil, err
		}
		if got.Reads == 0 {
			return nil, fmt.Errorf("replay %d replayed no read", r)
		}
		cpus = append(cpus, (cpuAfter-cpuBefore)*1e6/float64(got.Reads))
		res.Attempted += int64(got.Reads)
		res.Failed += int64(got.Failed)
		if got.Failed > 0 || got.Reads != off.reads {
			fail("replay %d: %d reads of %d, %d failed", r, got.Reads, off.reads, got.Failed)
		}
		if r < replaySeeds {
			first[r] = got
		} else if w := first[r%replaySeeds]; got.ReadLat.Mean != w.ReadLat.Mean || got.ReadLat.P99 != w.ReadLat.P99 ||
			got.Reroutes != w.Reroutes || got.Inferences != w.Inferences {
			fail("replay %d differs from replay %d on the same seed", r, r%replaySeeds)
		}
		slices.Sort(sel.lat)
		p50s = append(p50s, percentile(sel.lat, 50))
		p99s = append(p99s, p99(sel.lat))
		rate := float64(got.Reads) / wall
		rates = append(rates, rate)
		if tr != nil && tr.on {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
		res.Samples += int64(len(sel.lat))
	}
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}

	var auc, fnr, fpr float64
	for d, m := range models {
		rep := m.Evaluate(off.testRead[d], iolog.GroundTruth(off.testRead[d]))
		auc += rep.ROCAUC / float64(len(models))
		fnr += rep.FNR / float64(len(models))
		fpr += rep.FPR / float64(len(models))
	}
	quality := first[0]

	v["setup_s"] = median(setups)
	v["decide_p50_us"] = quiet(p50s, lowest) / 1e3
	v["decide_p99_us"] = quiet(p99s, lowest) / 1e3
	v["decides_per_s"] = quiet(rates, highest)
	v["cpu_us_per_decide"] = quiet(cpus, lowest)
	v["rss_mb"] = rss
	v["train_s"] = trainS
	v["model_auc"] = auc
	res.Slices = map[string][]float64{"decide_p50_ns": p50s, "decide_p99_ns": p99s, "decides_per_s": rates, "cpu_us_per_decide": cpus}
	if !o.traced {
		return res, nil
	}

	// Label and Extract are timed apart, on the same logs Train just used;
	// fit is what remains of Train.
	var labelS, extractS float64
	for d := range models {
		reads := iolog.Reads(off.logs[d])
		cfg := core.DefaultConfig(o.seed + int64(d))
		labelS += stage(spanLabel, func() { core.Label(reads, cfg) })
		extractS += stage(spanExtract, func() { feature.Extract(reads, cfg.Feature) })
	}
	v["trace.generate_ns_io"] = float64(off.genNS) / float64(off.genIOs)
	v["ssd.submit_ns_io"] = float64(off.collectNS) / float64(off.logIOs)
	v["core.label_s"] = labelS
	v["core.fit_s"] = trainS - labelS - extractS
	v["core.model_fnr"] = fnr
	v["core.model_fpr"] = fpr
	v["replay.ns_read"] = 1e9 / quiet(rates, highest)
	v["replay.inferences_per_read"] = float64(quality.Inferences) / float64(quality.Reads)
	v["replay.reroute_share"] = float64(quality.Reroutes) / float64(quality.Reads)
	v["replay.base_read_mean_us"] = float64(off.base.ReadLat.Mean) / 1e3
	v["replay.base_read_p99_us"] = float64(off.base.ReadLat.P99) / 1e3
	v["replay.heimdall_read_mean_us"] = float64(quality.ReadLat.Mean) / 1e3
	v["replay.heimdall_read_p99_us"] = float64(quality.ReadLat.P99) / 1e3
	if plain := quiet(plainRates, highest); plain > 0 {
		v["bench.trace_overhead_share"] = 1 - quiet(tracedRates, highest)/plain
	}
	return res, writeTrace(filepath.Join(o.outDir, "trace-train-replay.jsonl"), []*tracer{tr})
}
