package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/filter"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func testLog(t *testing.T, seed int64, d time.Duration) (*ssd.Device, []iolog.Record) {
	t.Helper()
	tr := trace.Generate(trace.MSRStyle(seed, d))
	dev := ssd.New(ssd.Samsung970Pro(), seed)
	return dev, iolog.Collect(tr, dev)
}

func quickCfg(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Epochs = 8
	cfg.MaxTrainSamples = 8000
	return cfg
}

func TestTrainAndEvaluate(t *testing.T) {
	_, log := testLog(t, 1, 4*time.Second)
	m, err := Train(log, quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Samples == 0 || rep.Kept == 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.SlowFraction <= 0 || rep.SlowFraction >= 0.6 {
		t.Fatalf("slow fraction %v implausible", rep.SlowFraction)
	}
	if rep.PreprocessTime <= 0 || rep.TrainTime <= 0 {
		t.Fatal("missing timing")
	}

	// Evaluate against simulator ground truth on a fresh device.
	_, testlg := testLog(t, 2, 4*time.Second)
	reads := iolog.Reads(testlg)
	gt := iolog.GroundTruth(reads)
	res := m.Evaluate(reads, gt)
	if res.ROCAUC < 0.75 {
		t.Fatalf("ROC-AUC vs ground truth %.3f, want >= 0.75", res.ROCAUC)
	}
}

func TestQuantizedDecisionsAgree(t *testing.T) {
	_, log := testLog(t, 3, 3*time.Second)
	m, err := Train(log, quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Quantized() == nil {
		t.Fatal("default config must quantize")
	}
	reads := iolog.Reads(log)
	rows := feature.Extract(reads[:500], m.Spec())
	agree := 0
	for _, raw := range rows {
		admitQ := m.Admit(raw)
		admitF := m.Score(raw) < m.Threshold()
		if admitQ == admitF {
			agree++
		}
	}
	if agree < 490 {
		t.Fatalf("quantized agrees with float on %d/500", agree)
	}
}

func TestErrNoReads(t *testing.T) {
	recs := []iolog.Record{{Op: trace.Write, Latency: 1}}
	if _, err := Train(recs, DefaultConfig(1)); !errors.Is(err, ErrNoReads) {
		t.Fatalf("err = %v, want ErrNoReads", err)
	}
}

func TestErrOneClass(t *testing.T) {
	// A perfectly uniform log yields no slow period at all.
	recs := make([]iolog.Record, 500)
	for i := range recs {
		recs[i] = iolog.Record{
			Arrival: int64(i) * 100_000, Size: 4096, Op: trace.Read,
			Latency: 100_000, QueueLen: 1,
		}
	}
	_, err := Train(recs, DefaultConfig(1))
	if !errors.Is(err, ErrOneClass) {
		t.Fatalf("err = %v, want ErrOneClass", err)
	}
}

func TestJointAssembly(t *testing.T) {
	rows := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}, {6, 60}, {7, 70}}
	reads := make([]iolog.Record, len(rows))
	for i := range reads {
		reads[i].Size = int32((i + 1) * 1000)
	}
	labels := []int{0, 0, 1, 0, 0, 0, 0}
	keep := []bool{true, true, true, true, true, false, true}
	cfg := Config{JointSize: 3}
	outRows, outLabels := assemble(rows, reads, labels, keep, cfg)
	// 6 kept rows → 2 joint groups of 3.
	if len(outRows) != 2 || len(outLabels) != 2 {
		t.Fatalf("joint rows %d labels %d", len(outRows), len(outLabels))
	}
	// Width: base 2 + 2 extra sizes.
	if len(outRows[0]) != 4 {
		t.Fatalf("joint width %d", len(outRows[0]))
	}
	// Group 1 holds indices 0,1,2 → any-slow = 1 (index 2 is slow).
	if outLabels[0] != 1 || outLabels[1] != 0 {
		t.Fatalf("joint labels %v", outLabels)
	}
	// Extended sizes are the 2nd and 3rd kept I/Os' sizes.
	if outRows[0][2] != 2000 || outRows[0][3] != 3000 {
		t.Fatalf("joint sizes %v", outRows[0])
	}
	// Skipped index 5: second group is 3,4,6.
	if outRows[1][2] != 5000 || outRows[1][3] != 7000 {
		t.Fatalf("second group sizes %v", outRows[1])
	}
}

func TestJointTraining(t *testing.T) {
	_, log := testLog(t, 5, 3*time.Second)
	cfg := quickCfg(5)
	cfg.JointSize = 3
	m, err := Train(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.JointSize() != 3 {
		t.Fatal("joint size lost")
	}
	hist := feature.NewWindow(cfg.Feature.Depth)
	raw := m.JointFeatures(2, []int32{4096, 8192, 4096}, hist)
	if len(raw) != m.Spec().Width()+2 {
		t.Fatalf("joint feature width %d", len(raw))
	}
	_ = m.Admit(raw) // must not panic
}

func TestSubsample(t *testing.T) {
	rows := make([][]float64, 100)
	labels := make([]int, 100)
	for i := range rows {
		rows[i] = []float64{float64(i)}
		labels[i] = i % 2
	}
	r, l := subsample(rows, labels, 10, 1)
	if len(r) != 10 || len(l) != 10 {
		t.Fatalf("sizes %d/%d", len(r), len(l))
	}
	// Alignment preserved.
	for i := range r {
		if int(r[i][0])%2 != l[i] {
			t.Fatal("row/label misaligned after subsample")
		}
	}
	// No-op when under the cap.
	r2, _ := subsample(rows, labels, 1000, 1)
	if len(r2) != 100 {
		t.Fatal("subsample shrank under-cap input")
	}
	// Deterministic.
	r3, _ := subsample(rows, labels, 10, 1)
	for i := range r3 {
		if r3[i][0] != r[i][0] {
			t.Fatal("subsample not deterministic")
		}
	}
}

func TestAblationConfigsTrain(t *testing.T) {
	_, log := testLog(t, 6, 3*time.Second)
	cfgs := map[string]func(*Config){
		"cutoff-labeling": func(c *Config) { c.Labeling = LabelCutoff },
		"no-filter":       func(c *Config) { c.Filter = filter.Config{} },
		"no-scaling":      func(c *Config) { c.Scaler = feature.ScaleNone },
		"digitize":        func(c *Config) { c.Scaler = feature.ScaleDigitize },
		"linnos-features": func(c *Config) { c.Feature = feature.Spec{Kinds: feature.LinnOSSet, Depth: 4} },
		"one-layer":       func(c *Config) { c.Hidden = c.Hidden[:1] },
		"pos-weighted":    func(c *Config) { c.PosWeight = 4 },
	}
	for name, mutate := range cfgs {
		cfg := quickCfg(6)
		cfg.Epochs = 4
		mutate(&cfg)
		if _, err := Train(log, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLabelingKindString(t *testing.T) {
	if LabelPeriod.String() != "period" || LabelCutoff.String() != "cutoff" {
		t.Fatal("labeling kind names")
	}
}

func TestRetrainProducesFreshModel(t *testing.T) {
	_, log := testLog(t, 7, 3*time.Second)
	m, err := Train(log, quickCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	_, log2 := testLog(t, 8, 3*time.Second)
	m2, err := m.Retrain(log2)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("retrain returned same model")
	}
	if m2.Config().Seed != m.Config().Seed {
		t.Fatal("retrain changed config")
	}
}

func TestWindowAccuracy(t *testing.T) {
	_, log := testLog(t, 9, 3*time.Second)
	m, err := Train(log, quickCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	reads := iolog.Reads(log)
	gt := iolog.GroundTruth(reads)
	acc := m.WindowAccuracy(reads, gt)
	if acc < 0.5 || acc > 1 {
		t.Fatalf("window accuracy %v", acc)
	}
	if got := m.WindowAccuracy(nil, nil); got != 1 {
		t.Fatalf("empty window accuracy %v", got)
	}
}
