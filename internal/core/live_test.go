package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/feature"
	"repro/internal/metrics"
)

// liveSamples synthesizes a harvested reservoir with alternating calm and
// busy phases, the pattern period labeling keys on. Deterministic in seed.
func liveSamples(seed int64, n int, devices uint32) []LiveSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]LiveSample, 0, n)
	seqs := make([]uint64, devices)
	for i := 0; i < n; i++ {
		dev := uint32(i) % devices
		busy := (i/200)%2 == 1
		var s LiveSample
		s.Device = dev
		s.Seq = seqs[dev]
		seqs[dev]++
		if busy {
			s.LatencyNs = uint64(1_500_000 + rng.Intn(2_000_000))
			s.QueueLen = uint32(8 + rng.Intn(24))
			s.Size = uint32(64 << 10)
		} else {
			s.LatencyNs = uint64(60_000 + rng.Intn(60_000))
			s.QueueLen = uint32(rng.Intn(3))
			s.Size = uint32(4 << 10)
		}
		out = append(out, s)
	}
	return out
}

// liveRowSamples is liveSamples with every Row filled the way a serving
// tracker fills it: the default-spec feature row over the device's earlier
// completions. Deterministic in seed.
func liveRowSamples(seed int64, n int, devices uint32) []LiveSample {
	spec := feature.DefaultSpec()
	wins := make([]*feature.Window, devices)
	for i := range wins {
		wins[i] = feature.NewWindow(spec.Depth)
	}
	out := liveSamples(seed, n, devices)
	for i := range out {
		s := &out[i]
		win := wins[s.Device]
		s.Row = spec.Online(int(s.QueueLen), int32(s.Size), 0, 0, win)
		win.Push(feature.Hist{
			Latency:  float64(s.LatencyNs),
			QueueLen: float64(s.QueueLen),
			Thpt:     float64(s.Size) / (1 << 20) / (float64(s.LatencyNs) / 1e9),
		})
	}
	return out
}

func liveTestConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Labeling = LabelCutoff
	cfg.SearchThresholds = false
	cfg.Epochs = 6
	cfg.MaxTrainSamples = 4000
	cfg.Quantize = false
	return cfg
}

// evalLive scores every sample's row and reports the model against the
// samples' live labels.
func evalLive(m *Model, samples []LiveSample, cfg Config) metrics.Report {
	labels := LiveLabels(samples, cfg)
	scores := make([]float64, len(samples))
	for i, s := range samples {
		scores[i] = m.Score(s.Row)
	}
	return metrics.EvaluateAt(scores, labels, m.Threshold())
}

func TestTrainLiveDeterministic(t *testing.T) {
	samples := liveRowSamples(2, 1200, 2)
	cfg := liveTestConfig(11)
	m1, err := TrainLiveRows(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainLiveRows(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Threshold() != m2.Threshold() {
		t.Fatalf("thresholds diverge: %v vs %v", m1.Threshold(), m2.Threshold())
	}
	r1 := evalLive(m1, samples, cfg)
	r2 := evalLive(m2, samples, cfg)
	if r1 != r2 {
		t.Fatalf("evaluations diverge: %+v vs %+v", r1, r2)
	}
	if r1.ROCAUC < 0.7 {
		t.Fatalf("live-trained model barely better than chance: AUC %v", r1.ROCAUC)
	}
}

func TestFinetuneLiveLeavesChampionUntouched(t *testing.T) {
	cfg := liveTestConfig(21)
	champ, err := TrainLiveRows(liveRowSamples(3, 1200, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := liveRowSamples(4, 1200, 2)

	beforeTh := champ.Threshold()
	before := evalLive(champ, fresh, cfg)

	tuned, err := champ.FinetuneLiveRows(fresh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if champ.Threshold() != beforeTh {
		t.Fatal("finetune mutated champion threshold")
	}
	if after := evalLive(champ, fresh, cfg); after != before {
		t.Fatalf("finetune mutated champion network: %+v vs %+v", after, before)
	}
	if tuned.Spec().Width() != champ.Spec().Width() {
		t.Fatal("finetuned model changed feature space")
	}
	if got := evalLive(tuned, fresh, cfg); got.ROCAUC < 0.6 {
		t.Fatalf("finetuned model degenerate: AUC %v", got.ROCAUC)
	}

	// Determinism: a second identical fine-tune yields the same model.
	tuned2, err := champ.FinetuneLiveRows(fresh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Threshold() != tuned2.Threshold() {
		t.Fatalf("finetune thresholds diverge: %v vs %v", tuned.Threshold(), tuned2.Threshold())
	}
	if e1, e2 := evalLive(tuned, fresh, cfg), evalLive(tuned2, fresh, cfg); e1 != e2 {
		t.Fatalf("finetune runs diverge: %+v vs %+v", e1, e2)
	}
}

// TestLiveRowTrainersKeepCallerRows: both trainers scale copies, never the
// caller's Row slices.
func TestLiveRowTrainersKeepCallerRows(t *testing.T) {
	samples := liveRowSamples(5, 1200, 2)
	orig := make([][]float64, len(samples))
	for i, s := range samples {
		orig[i] = append([]float64(nil), s.Row...)
	}
	check := func(stage string) {
		t.Helper()
		for i, s := range samples {
			if !reflect.DeepEqual(s.Row, orig[i]) {
				t.Fatalf("%s mutated the caller's row %d: %v, was %v", stage, i, s.Row, orig[i])
			}
		}
	}
	champ, err := TrainLiveRows(samples, liveTestConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	check("TrainLiveRows")
	if _, err := champ.FinetuneLiveRows(samples, 2); err != nil {
		t.Fatal(err)
	}
	check("FinetuneLiveRows")
}

func TestLiveRowTrainerErrors(t *testing.T) {
	cfg := liveTestConfig(41)
	champ, err := TrainLiveRows(liveRowSamples(8, 1200, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identity-only samples carry no rows: nothing to train on.
	noRows := liveSamples(9, 600, 2)
	// Rows one column short of the feature spec.
	narrow := liveRowSamples(10, 600, 2)
	for i := range narrow {
		narrow[i].Row = narrow[i].Row[:len(narrow[i].Row)-1]
	}
	// One latency for every sample: nothing lies above the cutoff.
	oneClass := liveRowSamples(11, 600, 2)
	for i := range oneClass {
		oneClass[i].LatencyNs = 100_000
	}

	cases := []struct {
		name    string
		samples []LiveSample
		want    error // nil: any non-nil error
	}{
		{"no-rows", noRows, ErrNoReads},
		{"width", narrow, nil},
		{"one-class", oneClass, ErrOneClass},
	}
	for _, c := range cases {
		trainers := map[string]func() (*Model, error){
			"train":    func() (*Model, error) { return TrainLiveRows(c.samples, cfg) },
			"finetune": func() (*Model, error) { return champ.FinetuneLiveRows(c.samples, 2) },
		}
		for name, train := range trainers {
			m, err := train()
			if m != nil || err == nil {
				t.Fatalf("%s/%s: got a model, want an error", c.name, name)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("%s/%s: got %v, want %v", c.name, name, err, c.want)
			}
			if c.want == nil && (errors.Is(err, ErrNoReads) || errors.Is(err, ErrOneClass)) {
				t.Fatalf("%s/%s: got %v, want the width error", c.name, name, err)
			}
		}
	}
}
