package experiments

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// driftWindowCount is how many monitoring windows a long deployment scores.
const driftWindowCount = 24

// driftWindows builds the long-deployment workload of §7: a Tencent-style
// write-heavy trace with slow input drift, collected in one continuous
// device run and chopped into driftWindowCount+1 windows of TraceDur/2
// simulated time. Window 0 is the first training set.
//
// Time scaling: the paper monitors an 8-hour trace in 10-minute windows
// (48 windows). We keep the window structure but shrink the window, and
// the generator's DriftPeriod scales along, which preserves the drift
// dynamics.
func driftWindows(scale Scale) [][]iolog.Record {
	window := scale.TraceDur / 2
	if window < time.Second {
		window = time.Second
	}
	total := window * time.Duration(driftWindowCount+1)

	gen := trace.TencentStyle(scale.Seed, total)
	gen.DriftPeriod = total / 3 // a few full drift cycles across the run
	long := trace.Generate(gen)
	dev := ssd.New(ssd.Samsung970Pro(), scale.Seed)
	log := iolog.Collect(long, dev)

	wins := make([][]iolog.Record, 0, driftWindowCount+1)
	start := 0
	for w := 0; w <= driftWindowCount; w++ {
		end := start
		limit := int64(w+1) * int64(window)
		for end < len(log) && log[end].Arrival < limit {
			end++
		}
		wins = append(wins, log[start:end])
		start = end
	}
	return wins
}

// deployment is one strategy's long-deployment run.
type deployment struct {
	accs     []float64 // windowed ROC-AUC, one per scored window
	retrains int
	failed   int // retrains that errored; the old model kept serving
}

// deploy trains on the first trainWins windows, then scores every later
// window and asks strat after each whether to retrain on it. Every
// strategy sees the windowed accuracy (NaN for drift.OnInputDrift, which
// runs without labels) and the input detector's verdict against the
// current model's training window. A retrain that errors (a one-class
// window, say) keeps the old model and counts as failed, so it never reads
// as a trigger that did not fire. The error is the first training's.
func deploy(scale Scale, wins [][]iolog.Record, trainWins int, strat drift.Strategy) (deployment, error) {
	var trainSet []iolog.Record
	for w := 0; w < trainWins && w < len(wins); w++ {
		trainSet = append(trainSet, wins[w]...)
	}
	model, err := core.Train(trainSet, scale.coreConfig(scale.Seed))
	if err != nil {
		return deployment{}, err
	}
	_, labelFree := strat.(drift.OnInputDrift)
	detector := newDetectorFor(model, trainSet)
	var d deployment
	for w := trainWins; w < len(wins); w++ {
		reads := iolog.Reads(wins[w])
		if len(reads) == 0 {
			continue
		}
		acc := model.WindowAccuracy(reads, iolog.GroundTruth(reads))
		d.accs = append(d.accs, acc)

		inputDrift := false
		if detector != nil {
			for _, row := range feature.Extract(reads, model.Spec()) {
				detector.Observe(row)
			}
			inputDrift = detector.Drifted()
		}
		if labelFree {
			acc = math.NaN()
		}
		if strat.ShouldRetrain(w, acc, inputDrift) {
			m2, err := model.Retrain(wins[w])
			if err != nil {
				d.failed++
				continue
			}
			model = m2
			detector = newDetectorFor(model, wins[w])
			d.retrains++
		}
	}
	return d, nil
}

func newDetectorFor(m *core.Model, trainWin []iolog.Record) *drift.InputDetector {
	reads := iolog.Reads(trainWin)
	if len(reads) == 0 {
		return nil
	}
	rows := feature.Extract(reads, m.Spec())
	d := drift.NewInputDetector(rows, 10)
	d.MinSamples = 300
	return d
}

// minMax returns the extremes of xs, or 0, 0 when it is empty.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = 1, 0
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Fig17 is the long-deployment drift experiment (§7): "first-N" strategies
// train once on the first N windows and never retrain, while the retraining
// policy trains on the first window and retrains on the last window
// whenever windowed accuracy drops below 80%.
func Fig17(scale Scale) Table {
	wins := driftWindows(scale)
	strategies := []struct {
		name      string
		trainWins int
		strat     drift.Strategy
	}{
		{"first-1w", 1, drift.Never{}},
		{"first-3w", 3, drift.Never{}},
		{"first-9w", 9, drift.Never{}},
		{"retrain<80%", 1, drift.OnAccuracy{Below: 0.80}},
	}

	t := Table{
		Title:   "Fig 17 — long-term deployment: windowed accuracy under drift",
		Columns: []string{"mean-acc", "min-acc", "max-acc", "retrains", "failed"},
		Note:    "train-once accuracy fluctuates with drift; the retraining policy holds it above the threshold",
	}
	for _, s := range strategies {
		d, err := deploy(scale, wins, s.trainWins, s.strat)
		if err != nil {
			t.Rows = append(t.Rows, Row{s.name + " (failed)", []float64{0, 0, 0, 0, 0}})
			continue
		}
		lo, hi := minMax(d.accs)
		t.Rows = append(t.Rows, Row{s.name, []float64{mean(d.accs), lo, hi, float64(d.retrains), float64(d.failed)}})
	}
	return t
}

// Fig17Ext extends the §7 long-deployment experiment with the retraining
// strategies §8 poses as open questions: never retrain, periodic retraining,
// the paper's accuracy-triggered policy (needs labels), and an input-drift
// trigger (PSI over the feature stream — works with per-request logging
// off, §7's deployment concern). Every strategy trains on the first window.
func Fig17Ext(scale Scale) Table {
	wins := driftWindows(scale)
	strategies := []drift.Strategy{
		drift.Never{},
		drift.Periodic{Every: 6},
		drift.OnAccuracy{Below: 0.80},
		drift.OnInputDrift{},
	}

	t := Table{
		Title:   "Fig 17 extension — retraining strategies under drift",
		Columns: []string{"mean-acc", "min-acc", "retrains", "failed"},
		Note:    "both triggered strategies should beat never-retrain; the input-drift trigger needs no labels",
	}
	for _, strat := range strategies {
		d, err := deploy(scale, wins, 1, strat)
		if err != nil {
			t.Rows = append(t.Rows, Row{strat.Name() + " (failed)", []float64{0, 0, 0, 0}})
			continue
		}
		lo, _ := minMax(d.accs)
		t.Rows = append(t.Rows, Row{strat.Name(), []float64{mean(d.accs), lo, float64(d.retrains), float64(d.failed)}})
	}
	return t
}
