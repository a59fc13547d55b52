// Package core implements the Heimdall I/O admission model and its training
// pipeline — the paper's primary contribution. Train runs the full pipeline
// of §3 over a collected I/O log:
//
//	label (period-based, §3.1) → noise-filter (3 stages, §3.2) →
//	featurize + scale (§3.3) → train the tuned NN (§3.5) →
//	quantize for deployment (§4.1)
//
// The resulting Model makes per-I/O (or joint, §4.2) admit/decline decisions
// in well under a microsecond using integer arithmetic.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/feature"
	"repro/internal/filter"
	"repro/internal/iolog"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// LabelingKind selects the labeling algorithm.
type LabelingKind int

const (
	// LabelPeriod is Heimdall's period-based accurate labeling (§3.1).
	LabelPeriod LabelingKind = iota
	// LabelCutoff is the latency-cutoff labeling of prior work (Fig. 3a).
	LabelCutoff
	// LabelCutoffSize is the latency knee per size class: slow means slow
	// for your own transfer size. It removes plain Cutoff's size confound
	// (Fig. 3b) without the arrival timestamps period labeling needs —
	// the labeler live retraining uses on harvested completions.
	LabelCutoffSize
)

// String names the labeling kind.
func (k LabelingKind) String() string {
	switch k {
	case LabelCutoff:
		return "cutoff"
	case LabelCutoffSize:
		return "cutoff-size"
	default:
		return "period"
	}
}

// Config parameterizes the pipeline. DefaultConfig gives the paper's final
// design; the ablation experiments flip individual fields.
type Config struct {
	Seed int64

	// Labeling stage.
	Labeling LabelingKind
	// SearchThresholds enables the gradient-descent threshold search
	// (Fig. 3d); otherwise DefaultThresholds are used as-is.
	SearchThresholds bool

	// Noise filtering stage (§3.2).
	Filter filter.Config

	// Feature engineering stage (§3.3).
	Feature feature.Spec
	Scaler  feature.ScalerKind

	// Model stage (§3.5). Hidden layers only; the output layer is added per
	// Output. Defaults to Fig. 9f: 128 and 16 ReLU neurons.
	Hidden []nn.LayerSpec
	// Output defaults to a single sigmoid neuron.
	Output nn.LayerSpec

	Epochs int
	Batch  int
	LR     float64
	// PosWeight != 1 enables the biased weighted-loss training of §3.6.
	PosWeight float64

	// JointSize is the joint-inference granularity P (§4.2): one inference
	// admits/declines P consecutive I/Os. 1 disables joint inference.
	JointSize int

	// MaxTrainSamples caps the training set by uniform random subsampling
	// (the data-sampling stage of the pipeline, Fig. 1 "TS"); 0 means no
	// cap. High-IOPS logs carry hundreds of thousands of reads per minute;
	// the model saturates well before that.
	MaxTrainSamples int

	// Quantize produces the fixed-point deployment network (§4.1). On by
	// default in DefaultConfig.
	Quantize bool

	// Quantize8 additionally builds the int8 batch engine (per-channel
	// symmetric weight scales, activation scales calibrated on the scaled
	// training rows) and installs it as the model's active Predictor. Off by
	// default: the int32 ladder remains the reference deployment; flip this
	// (or call Model.EnableInt8) to serve through the batched int8 kernel.
	Quantize8 bool
}

// DefaultConfig returns the shipped Heimdall pipeline: period labeling with
// threshold search, the shipped noise-filter configuration (see
// filter.DefaultConfig; the paper's full 3-stage setup is
// filter.PaperConfig), the selected 11-feature set at depth 3 with min-max
// scaling, the 128/16 ReLU network with a single sigmoid output, and
// quantization.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Labeling:         LabelPeriod,
		SearchThresholds: true,
		Filter:           filter.DefaultConfig(),
		Feature:          feature.DefaultSpec(),
		Scaler:           feature.ScaleMinMax,
		Hidden:           []nn.LayerSpec{{Units: 128, Act: nn.ReLU}, {Units: 16, Act: nn.ReLU}},
		Output:           nn.LayerSpec{Units: 1, Act: nn.Sigmoid},
		Epochs:           25,
		Batch:            64,
		LR:               0.005,
		PosWeight:        1,
		JointSize:        1,
		MaxTrainSamples:  50000,
		Quantize:         true,
	}
}

// Report describes a completed training run.
type Report struct {
	Samples      int // read I/Os in the log
	Kept         int // samples surviving noise filtering
	SlowFraction float64
	Thresholds   label.Thresholds
	FilterDrops  map[filter.NoiseKind]int
	// PreprocessTime covers labeling, filtering, feature extraction, and
	// scaling; TrainTime covers gradient descent (the §6.7 split).
	PreprocessTime time.Duration
	TrainTime      time.Duration
	TrainStats     nn.TrainStats
}

// Model is a trained Heimdall admission model.
type Model struct {
	cfg    Config
	spec   feature.Spec
	scaler feature.Scaler
	net    *nn.Network
	qnet   *nn.QuantNetwork
	qnet8  *nn.QuantNetwork8
	report Report

	// pred is the active inference engine every admission decision routes
	// through. By default it is the highest rung of the quantization ladder
	// the configuration built (int8 > int32 > float); SetPredictor installs
	// a custom engine.
	pred nn.Predictor

	// threshold is the calibrated decision boundary: scores at or above it
	// decline the I/O. Calibrated so that the training-set decline rate
	// matches the labeled slow fraction — plain 0.5 under-calls the slow
	// minority after BCE training on imbalanced data (§3.6).
	threshold float64

	iscr        *Scratch // internal scratch backing the Admit convenience path
	rowBuf      []float64
	fcur, fnext []float64
}

// ErrNoReads is returned when the training log contains no read I/Os.
var ErrNoReads = errors.New("core: training log contains no reads")

// ErrOneClass is returned when labeling yields a single class (a log with no
// detectable slow period, or all slow).
var ErrOneClass = errors.New("core: labeled log has a single class; collect a longer log")

// Train runs the full pipeline over a collected log and returns the
// deployable model.
//
// Audited wall-clock use: time.Now feeds only the §6.7
// Report.PreprocessTime field; no training decision or model parameter
// depends on it, so reproducibility is unaffected.
//
//heimdall:walltime
func Train(recs []iolog.Record, cfg Config) (*Model, error) {
	start := time.Now()
	reads := iolog.Reads(recs)
	if len(reads) == 0 {
		return nil, ErrNoReads
	}
	cfg = cfg.withDefaults()

	labels, thresholds := Label(reads, cfg)

	fres := filter.Apply(reads, labels, cfg.Filter)

	rows := feature.Extract(reads, cfg.Feature)
	rows, labels = assemble(rows, reads, labels, fres.Keep, cfg)
	if !hasBothClasses(labels) {
		return nil, ErrOneClass
	}

	scaler := feature.NewScaler(cfg.Scaler)
	feature.FitTransform(scaler, rows)
	preprocess := time.Since(start)

	net, err := newNetwork(cfg, len(rows[0]))
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		spec:   cfg.Feature,
		scaler: scaler,
		net:    net,
		report: Report{
			Samples:        len(reads),
			Kept:           fres.Kept,
			Thresholds:     thresholds,
			FilterDrops:    fres.Drops,
			PreprocessTime: preprocess,
		},
	}
	return m.fit(rows, labels)
}

// withDefaults fills the model-shape fields a zero Config leaves empty:
// the default feature spec, the 128/16 ReLU hidden layers, one sigmoid
// output and joint size 1.
func (cfg Config) withDefaults() Config {
	if cfg.JointSize < 1 {
		cfg.JointSize = 1
	}
	if cfg.Feature.Depth == 0 {
		cfg.Feature = feature.DefaultSpec()
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []nn.LayerSpec{{Units: 128, Act: nn.ReLU}, {Units: 16, Act: nn.ReLU}}
	}
	if cfg.Output.Units == 0 {
		cfg.Output = nn.LayerSpec{Units: 1, Act: nn.Sigmoid}
	}
	return cfg
}

// newNetwork builds the untrained network cfg describes for rows of the
// given width.
func newNetwork(cfg Config, width int) (*nn.Network, error) {
	loss := nn.BCE
	if cfg.Output.Act == nn.Softmax {
		loss = nn.CE
	}
	return nn.New(nn.Config{
		Inputs:    width,
		Layers:    append(append([]nn.LayerSpec(nil), cfg.Hidden...), cfg.Output),
		Seed:      cfg.Seed,
		Optimizer: nn.Adam,
		Loss:      loss,
		LR:        cfg.LR,
		Epochs:    cfg.Epochs,
		Batch:     cfg.Batch,
		PosWeight: cfg.PosWeight,
		Patience:  6,
	})
}

// fit is the training tail every trainer ends in. m arrives with its
// config, feature spec, fitted scaler, untrained (or cloned) network and
// the trainer's report figures; rows are already scaled. fit subsamples
// the rows to MaxTrainSamples, trains the network, calibrates the
// threshold, builds the quantized rungs the config asks for and installs
// the default predictor.
//
// Audited wall-clock use: time.Now feeds only the §6.7 Report.TrainTime
// field; no training decision or model parameter depends on it.
//
//heimdall:walltime
func (m *Model) fit(rows [][]float64, labels []int) (*Model, error) {
	rows, labels = subsample(rows, labels, m.cfg.MaxTrainSamples, m.cfg.Seed)
	yf := make([]float64, len(labels))
	for i, l := range labels {
		yf[i] = float64(l)
	}
	start := time.Now()
	stats, err := m.net.Train(rows, yf)
	if err != nil {
		return nil, err
	}
	m.report.TrainTime = time.Since(start)
	m.report.TrainStats = stats
	m.report.SlowFraction = label.SlowFraction(labels)
	m.threshold = calibrate(m.net, rows, labels)
	if m.cfg.Quantize {
		q, err := m.net.Quantize()
		if err != nil {
			return nil, fmt.Errorf("core: quantize: %w", err)
		}
		m.qnet = q
	}
	if m.cfg.Quantize8 {
		// The scaled training rows double as the activation-scale
		// calibration set: they are exactly the distribution the model
		// will see online.
		q8, err := m.net.Quantize8(rows)
		if err != nil {
			return nil, fmt.Errorf("core: quantize8: %w", err)
		}
		m.qnet8 = q8
	}
	m.pred = m.defaultPredictor()
	return m, nil
}

// Label runs the configured labeling stage and returns labels for the read
// log plus the thresholds used (period labeling only).
func Label(reads []iolog.Record, cfg Config) ([]int, label.Thresholds) {
	switch cfg.Labeling {
	case LabelCutoff:
		return label.Cutoff(reads, label.CutoffValue(reads)), label.Thresholds{}
	case LabelCutoffSize:
		return label.CutoffPerSize(reads), label.Thresholds{}
	default:
		th := label.DefaultThresholds()
		if cfg.SearchThresholds {
			th = label.Search(reads, label.SearchOptions{})
		}
		return label.Period(reads, th), th
	}
}

// assemble applies the filter mask and, for joint inference, groups P
// consecutive kept samples into one row (head features + the P sizes) with
// an any-slow label.
func assemble(rows [][]float64, reads []iolog.Record, labels []int, keep []bool, cfg Config) ([][]float64, []int) {
	var keptRows [][]float64
	var keptLabels []int
	var keptSizes []float64
	for i := range rows {
		if !keep[i] {
			continue
		}
		keptRows = append(keptRows, rows[i])
		keptLabels = append(keptLabels, labels[i])
		keptSizes = append(keptSizes, float64(reads[i].Size))
	}
	p := cfg.JointSize
	if p <= 1 {
		return keptRows, keptLabels
	}
	var outRows [][]float64
	var outLabels []int
	for i := 0; i+p <= len(keptRows); i += p {
		row := append([]float64(nil), keptRows[i]...)
		// Extend with the sizes of the remaining P-1 I/Os in the group; the
		// head's own size is already in its feature vector.
		for j := 1; j < p; j++ {
			row = append(row, keptSizes[i+j])
		}
		lab := 0
		for j := 0; j < p; j++ {
			if keptLabels[i+j] == 1 {
				lab = 1
				break
			}
		}
		outRows = append(outRows, row)
		outLabels = append(outLabels, lab)
	}
	return outRows, outLabels
}

// calibrate picks the decision threshold whose training-set decline rate
// matches the labeled slow fraction, clamped to [0.05, 0.5]. This is the
// fine-grained tuning pass that keeps the deployed false-admit rate in line
// with what labeling saw.
func calibrate(net *nn.Network, rows [][]float64, labels []int) float64 {
	if len(rows) == 0 {
		return 0.5
	}
	slow := 0
	for _, l := range labels {
		slow += l
	}
	scores := scoreRows(net, rows)
	sort.Float64s(scores)
	// Threshold at the (1 - slowFrac) quantile of training scores.
	idx := len(scores) - slow
	if idx < 0 {
		idx = 0
	}
	if idx >= len(scores) {
		idx = len(scores) - 1
	}
	th := scores[idx]
	if th < 0.05 {
		th = 0.05
	}
	if th > 0.5 {
		th = 0.5
	}
	return th
}

// subsample uniformly reduces the training set to at most max rows,
// deterministically in seed. Uniform sampling preserves the class mix.
func subsample(rows [][]float64, labels []int, max int, seed int64) ([][]float64, []int) {
	if max <= 0 || len(rows) <= max {
		return rows, labels
	}
	rng := rand.New(rand.NewSource(seed + 17))
	idx := rng.Perm(len(rows))[:max]
	sort.Ints(idx)
	outR := make([][]float64, max)
	outL := make([]int, max)
	for i, j := range idx {
		outR[i] = rows[j]
		outL[i] = labels[j]
	}
	return outR, outL
}

func hasBothClasses(labels []int) bool {
	var pos, neg bool
	for _, l := range labels {
		if l == 1 {
			pos = true
		} else {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}

// Config returns the pipeline configuration.
func (m *Model) Config() Config { return m.cfg }

// Report returns the training report.
func (m *Model) Report() Report { return m.report }

// Spec returns the feature spec deployment callers must feed.
func (m *Model) Spec() feature.Spec { return m.spec }

// JointSize returns the inference granularity P.
func (m *Model) JointSize() int { return m.cfg.JointSize }

// Net exposes the underlying float network (for overhead accounting and the
// tuning experiments).
func (m *Model) Net() *nn.Network { return m.net }

// Quantized exposes the fixed-point network, nil if quantization is off.
func (m *Model) Quantized() *nn.QuantNetwork { return m.qnet }

// Quantized8 exposes the int8 batch engine, nil unless Quantize8 was set or
// EnableInt8 was called.
func (m *Model) Quantized8() *nn.QuantNetwork8 { return m.qnet8 }

// defaultPredictor returns the highest rung of the quantization ladder this
// model carries: int8, else int32, else the float network.
func (m *Model) defaultPredictor() nn.Predictor {
	if m.qnet8 != nil {
		return m.qnet8
	}
	if m.qnet != nil {
		return m.qnet
	}
	return m.net
}

// Predictor returns the active inference engine — what AdmitInto,
// AdmitBatchInto, Admit, and the serving layer decide through.
func (m *Model) Predictor() nn.Predictor {
	if m.pred == nil {
		m.pred = m.defaultPredictor()
	}
	return m.pred
}

// SetPredictor installs a custom inference engine; nil restores the ladder
// default. The engine must accept this model's input width. Not safe to call
// concurrently with inference — use WithPredictor to derive a second model
// instead of mutating a shared one.
func (m *Model) SetPredictor(p nn.Predictor) {
	if p == nil {
		p = m.defaultPredictor()
	}
	m.pred = p
	m.iscr = nil // engine-specific scratch shapes may differ
}

// WithPredictor returns a shallow copy of the model that decides through p:
// same feature spec, scaler, calibrated threshold, and networks, but an
// independent engine and no shared scratch — the copy and the original can
// serve concurrently. Passing nil copies with the ladder default.
func (m *Model) WithPredictor(p nn.Predictor) *Model {
	c := *m
	c.iscr = nil
	c.rowBuf, c.fcur, c.fnext = nil, nil, nil
	if p == nil {
		p = c.defaultPredictor()
	}
	c.pred = p
	return &c
}

// EnableInt8 builds the int8 batch engine from the float network and
// installs it as the active Predictor. Activation scales are calibrated on
// rawCalib (raw, unscaled feature rows of the model's input width — e.g.
// feature.Extract output; rows of any other width are skipped); with no
// usable rows the scales fall back to conservative analytic bounds, which
// cost int8 resolution. Models trained with Config.Quantize8 already carry
// calibrated scales and keep them. Not safe to call concurrently with
// inference.
func (m *Model) EnableInt8(rawCalib [][]float64) error {
	if m.qnet8 != nil {
		m.SetPredictor(m.qnet8)
		return nil
	}
	width := m.net.Config().Inputs
	var scaled [][]float64
	for _, r := range rawCalib {
		if len(r) != width {
			continue
		}
		row := append([]float64(nil), r...)
		m.scale(row)
		scaled = append(scaled, row)
	}
	q8, err := m.net.Quantize8(scaled)
	if err != nil {
		return fmt.Errorf("core: quantize8: %w", err)
	}
	m.qnet8 = q8
	m.cfg.Quantize8 = true // Save/Load keeps the engine choice
	m.SetPredictor(q8)
	return nil
}

// scale applies the trained scaler to the raw (unscaled) feature row in
// place. The scaler was fitted on assembled rows, so joint models scale the
// extended group row directly.
func (m *Model) scale(row []float64) []float64 {
	return m.scaler.Transform(row)
}

// Score returns P(slow) for a raw feature row (float path).
func (m *Model) Score(raw []float64) float64 {
	row := append([]float64(nil), raw...)
	m.scale(row)
	return m.net.Infer(row)
}

// ScoreFast returns P(slow) for a raw feature row via the float network,
// reusing the model's internal scratch buffers — the zero-allocation
// counterpart of Score. Not safe for concurrent use (shared scratch); clone
// the model per goroutine or use Score.
//
//heimdall:hotpath
func (m *Model) ScoreFast(raw []float64) float64 {
	if cap(m.rowBuf) < len(raw) {
		m.rowBuf = make([]float64, len(raw))
	}
	row := m.rowBuf[:len(raw)]
	copy(row, raw)
	m.scale(row)
	if m.fcur == nil {
		w := m.net.ScratchSize()
		m.fcur = make([]float64, w)
		m.fnext = make([]float64, w)
	}
	return m.net.PredictInto(row, m.fcur, m.fnext)
}

// Threshold returns the calibrated decision boundary.
func (m *Model) Threshold() float64 { return m.threshold }

// SetThreshold overrides the calibrated decision boundary — deployment-time
// recalibration for operators who want a different FNR/FPR trade-off than
// the training-set calibration picked (§3.6 discusses the imbalance that
// makes this boundary a tuning knob). Scores at or above the threshold
// decline the I/O, so SetThreshold(2) always admits and SetThreshold(-1)
// never does. Not safe to call concurrently with inference.
func (m *Model) SetThreshold(t float64) { m.threshold = t }

// WithThreshold returns a copy of the model carrying a different decision
// threshold. The copy shares the (read-only at decision time) networks,
// scaler, and predictor but owns its internal scratch, so the original
// can keep serving while the copy is published — the safe way to move a
// deployed model's operating point (SetThreshold on a served model races
// with inference).
func (m *Model) WithThreshold(t float64) *Model {
	out := *m
	out.iscr, out.rowBuf, out.fcur, out.fnext = nil, nil, nil, nil
	out.threshold = t
	return &out
}

// Scratch holds the per-caller buffers AdmitInto needs, making concurrent
// inference possible on one shared *Model: the model's weights, scaler, and
// threshold are read-only at decision time, so N goroutines each holding a
// Scratch can call AdmitInto on the same Model without synchronization —
// what the serving layer's shards do.
type Scratch struct {
	flat   []float64   // scaled feature rows, batch-major, one contiguous block
	rows   [][]float64 // views into flat, one per staged row
	scores []float64   // model outputs per staged row
	ns     *nn.Scratch // the active Predictor's layer buffers
	width  int         // feature width flat was laid out for
}

// NewScratch sizes a Scratch for single-row admission (batch of 1) against
// the model's active Predictor.
func (m *Model) NewScratch() *Scratch { return m.NewBatchScratch(1) }

// NewBatchScratch sizes a Scratch so AdmitBatchInto can decide up to
// maxBatch rows with zero allocations. A Scratch is bound to the Predictor
// that was active when it was created — SetPredictor invalidates it.
func (m *Model) NewBatchScratch(maxBatch int) *Scratch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	// Joint rows extend the base width by P-1 sizes.
	w := m.spec.Width() + m.cfg.JointSize
	return &Scratch{
		flat:   make([]float64, 0, maxBatch*w),
		rows:   make([][]float64, 0, maxBatch),
		scores: make([]float64, maxBatch),
		ns:     nn.NewScratch(m.Predictor(), maxBatch),
		width:  w,
	}
}

// AdmitInto decides one I/O (or one joint group) from a raw feature row
// through the model's active Predictor, exactly like Admit, but with
// caller-provided scratch instead of the model's internal buffers. The input
// is not modified. Safe for concurrent use with per-goroutine Scratch; zero
// allocations once the scratch has grown to the feature width.
//
//heimdall:hotpath
func (m *Model) AdmitInto(raw []float64, s *Scratch) bool {
	if cap(s.flat) < len(raw) {
		s.flat = make([]float64, 0, len(raw))
	}
	s.flat = append(s.flat[:0], raw...)
	m.scale(s.flat)
	if cap(s.rows) < 1 {
		s.rows = make([][]float64, 0, 1)
	}
	s.rows = append(s.rows[:0], s.flat)
	if len(s.scores) < 1 {
		s.scores = make([]float64, 1)
	}
	m.pred.PredictBatchInto(s.rows, s.scores[:1], s.ns)
	return s.scores[0] < m.threshold
}

// AdmitBatchInto decides a batch of raw feature rows in one pass through the
// active Predictor's batch kernel, writing one verdict per row into
// verdicts[:len(raws)] (true = admit). Inputs are not modified. Verdicts are
// bit-identical to calling AdmitInto row by row — integer-quantized engines
// are exact at any batch shape — which is what lets the serving layer batch
// without changing answers. Zero allocations once s (from NewBatchScratch)
// has grown to the batch shape.
//
//heimdall:hotpath
func (m *Model) AdmitBatchInto(raws [][]float64, verdicts []bool, s *Scratch) {
	n := len(raws)
	if n == 0 {
		return
	}
	need := 0
	for _, r := range raws {
		need += len(r)
	}
	// Grow flat up front: appending must never reallocate mid-loop or the
	// earlier row views in s.rows would dangle into the old block.
	if cap(s.flat) < need {
		s.flat = make([]float64, 0, need)
	}
	if cap(s.rows) < n {
		s.rows = make([][]float64, 0, n)
	}
	if len(s.scores) < n {
		s.scores = make([]float64, n)
	}
	s.flat = s.flat[:0]
	s.rows = s.rows[:0]
	for _, r := range raws {
		off := len(s.flat)
		s.flat = append(s.flat, r...)
		row := s.flat[off : off+len(r) : off+len(r)]
		m.scale(row)
		s.rows = append(s.rows, row)
	}
	m.pred.PredictBatchInto(s.rows, s.scores[:n], s.ns)
	for i := 0; i < n; i++ {
		verdicts[i] = s.scores[i] < m.threshold
	}
}

// Admit decides one I/O (or one joint group) from a raw feature row through
// the model's active Predictor: true = admit, false = decline and reroute.
// The input is not modified. Not safe for concurrent use (shared internal
// scratch); use AdmitInto with a per-goroutine Scratch instead.
//
//heimdall:hotpath
func (m *Model) Admit(raw []float64) bool {
	if m.iscr == nil {
		m.iscr = m.NewScratch()
	}
	return m.AdmitInto(raw, m.iscr)
}

// Features assembles the raw (unscaled) online feature row for a single I/O.
func (m *Model) Features(queueLen int, size int32, hist *feature.Window) []float64 {
	return m.spec.Online(queueLen, size, 0, 0, hist)
}

// JointFeatures assembles the raw feature row for a joint group of I/Os:
// head features plus the sizes of the rest of the group. len(sizes) must
// equal JointSize.
func (m *Model) JointFeatures(queueLen int, sizes []int32, hist *feature.Window) []float64 {
	row := m.spec.Online(queueLen, sizes[0], 0, 0, hist)
	for _, s := range sizes[1:] {
		row = append(row, float64(s))
	}
	return row
}

// Evaluate scores a labeled test log and returns the five-metric report
// (§6.4). Joint models group the test samples the same way training did.
func (m *Model) Evaluate(reads []iolog.Record, refLabels []int) metrics.Report {
	rows := feature.Extract(reads, m.spec)
	keep := make([]bool, len(rows))
	for i := range keep {
		keep[i] = true
	}
	rows, labels := assemble(rows, reads, refLabels, keep, m.cfg)
	for _, r := range rows {
		m.scale(r)
	}
	return metrics.EvaluateAt(scoreRows(m.net, rows), labels, m.threshold)
}

// scoreChunk is how many rows scoreRows sends through one batched forward
// pass: its planes stay a few hundred KB at the deployed widths.
const scoreChunk = 256

// scoreRows scores feature-scaled rows through the float network's batched
// forward pass, scoreChunk rows at a time. Each score is bit-equal to
// scoring its row alone.
func scoreRows(net *nn.Network, rows [][]float64) []float64 {
	scores := make([]float64, len(rows))
	s := nn.NewScratch(net, min(scoreChunk, len(rows)))
	for i := 0; i < len(rows); i += scoreChunk {
		j := min(i+scoreChunk, len(rows))
		net.PredictBatchInto(rows[i:j], scores[i:j], s)
	}
	return scores
}
