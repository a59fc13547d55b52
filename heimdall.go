// Package heimdall is a from-scratch Go reproduction of "Heimdall:
// Optimizing Storage I/O Admission with Extensive Machine Learning Pipeline"
// (EuroSys 2025): an ML-powered I/O admission policy for replicated flash
// storage, together with every substrate the paper's evaluation needs — a
// discrete-event SSD simulator, synthetic production-style trace generators,
// a trace replayer, heuristic baselines (C3, AMS, Heron, hedging, LinnOS),
// a Ceph-like cluster simulator, and an AutoML comparator.
//
// Quickstart:
//
//	tr := heimdall.Generate(heimdall.MSRStyle(42, 30*time.Second))
//	dev := heimdall.NewDevice(heimdall.Samsung970Pro(), 1)
//	log := heimdall.Collect(tr, dev)                       // logging phase
//	model, err := heimdall.Train(log, heimdall.DefaultConfig(7))
//	...
//	admit := model.Admit(model.Features(queueLen, size, hist))
//
// The full pipeline (§3 of the paper) runs inside Train: period-based
// labeling with gradient-descent threshold search, 3-stage noise filtering,
// feature engineering with min-max scaling, the tuned 128/16 ReLU network,
// and fixed-point quantization for sub-microsecond admission decisions.
// Every inference engine — float, int32 fixed-point, and the batched int8
// engine (Config.Quantize8 or (*Model).EnableInt8) — sits behind the one
// Predictor interface; see predictor.go.
//
// This package is a façade: it re-exports the stable API of the internal
// packages so downstream users import a single path.
package heimdall

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/label"
	"repro/internal/linnos"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ---- Core pipeline (the paper's contribution) ----

// Config parameterizes the training pipeline; see DefaultConfig.
type Config = core.Config

// Model is a trained admission model.
type Model = core.Model

// Report describes a completed training run.
type Report = core.Report

// LabelingKind selects period-based or cutoff labeling.
type LabelingKind = core.LabelingKind

// Labeling algorithms.
const (
	LabelPeriod = core.LabelPeriod
	LabelCutoff = core.LabelCutoff
)

// Train runs the full Heimdall pipeline over a collected I/O log.
func Train(log []Record, cfg Config) (*Model, error) { return core.Train(log, cfg) }

// DefaultConfig returns the paper's shipped pipeline configuration.
func DefaultConfig(seed int64) Config { return core.DefaultConfig(seed) }

// ---- I/O log ----

// Record is one logged I/O (the training input).
type Record = iolog.Record

// Collect replays a trace through a device with always-admit and returns
// the training log.
func Collect(t *Trace, dev *Device) []Record { return iolog.Collect(t, dev) }

// Reads filters a log to its read records.
func Reads(recs []Record) []Record { return iolog.Reads(recs) }

// GroundTruth extracts the simulator's contention truth as 0/1 labels
// (evaluation only — unavailable on real hardware).
func GroundTruth(recs []Record) []int { return iolog.GroundTruth(recs) }

// ---- Traces ----

// Trace is an ordered block-I/O request sequence.
type Trace = trace.Trace

// Request is a single block I/O request.
type Request = trace.Request

// GenConfig parameterizes the synthetic trace generator.
type GenConfig = trace.GenConfig

// Augmentation is one of the paper's five data-augmentation functions.
type Augmentation = trace.Augmentation

// Op is the request type (OpRead/OpWrite).
type Op = trace.Op

// Request types.
const (
	OpRead  = trace.Read
	OpWrite = trace.Write
)

// Generate produces a synthetic trace.
func Generate(cfg GenConfig) *Trace { return trace.Generate(cfg) }

// MSRStyle returns an MSR-Cambridge-style generator config.
func MSRStyle(seed int64, d time.Duration) GenConfig { return trace.MSRStyle(seed, d) }

// AlibabaStyle returns an Alibaba-block-trace-style generator config.
func AlibabaStyle(seed int64, d time.Duration) GenConfig { return trace.AlibabaStyle(seed, d) }

// TencentStyle returns a Tencent-block-trace-style generator config.
func TencentStyle(seed int64, d time.Duration) GenConfig { return trace.TencentStyle(seed, d) }

// StandardAugmentations returns the paper's five augmentation functions plus
// identity.
func StandardAugmentations() []Augmentation { return trace.StandardAugmentations() }

// ---- SSD simulator ----

// Device is a simulated SSD.
type Device = ssd.Device

// DeviceConfig describes one SSD model.
type DeviceConfig = ssd.Config

// NewDevice creates a simulated SSD with deterministic behaviour.
func NewDevice(cfg DeviceConfig, seed int64) *Device { return ssd.New(cfg, seed) }

// Samsung970Pro returns the homogeneous-datacenter device model of §6.1.
func Samsung970Pro() DeviceConfig { return ssd.Samsung970Pro() }

// IntelDCS3610 returns the consumer SATA device model of §6.2.
func IntelDCS3610() DeviceConfig { return ssd.IntelDCS3610() }

// SamsungPM961 returns the consumer NVMe device model of §6.2.
func SamsungPM961() DeviceConfig { return ssd.SamsungPM961() }

// DeviceModels returns all ten device models of the paper's testbed.
func DeviceModels() []DeviceConfig { return ssd.Models() }

// ---- Replay & policies ----

// ReplayOptions configures a replay run.
type ReplayOptions = replay.Options

// ReplayResult summarizes one replay.
type ReplayResult = replay.Result

// Selector routes reads to replicas.
type Selector = policy.Selector

// Replay replays traces against replicated simulated devices under a policy.
func Replay(traces []*Trace, opts ReplayOptions) ReplayResult { return replay.Run(traces, opts) }

// BaselinePolicy always admits to the primary replica.
func BaselinePolicy() Selector { return policy.Baseline{} }

// RandomPolicy load-balances uniformly.
func RandomPolicy(seed int64) Selector { return policy.NewRandom(seed) }

// HedgingPolicy fires a backup request after the timeout; 0 uses the
// paper's 2ms.
func HedgingPolicy(timeout time.Duration) Selector {
	return policy.NewHedging(timeout)
}

// C3Policy is the cubic replica-selection heuristic.
func C3Policy() Selector { return policy.C3{} }

// AMSPolicy is the adaptive multiget scheduling heuristic.
func AMSPolicy() Selector { return policy.AMS{} }

// HeronPolicy is the slow-replica-avoidance heuristic.
func HeronPolicy() Selector { return &policy.Heron{} }

// HeimdallPolicy wraps per-replica trained models into an admission policy.
// Each model decides through its active Predictor (see predictor.go); use
// (*Model).SetPredictor or (*Model).WithPredictor to pin a specific rung of
// the quantization ladder per replica.
func HeimdallPolicy(models []*Model) Selector { return &policy.Heimdall{Models: models} }

// LinnOSPolicy wraps per-replica LinnOS models; hedge > 0 adds hedging on
// top of the per-page model decisions.
func LinnOSPolicy(models []*LinnOSModel, hedge time.Duration) Selector {
	return &policy.LinnOS{Models: models, Hedge: hedge}
}

// ---- LinnOS baseline ----

// LinnOSModel is the re-implemented LinnOS predictor.
type LinnOSModel = linnos.Model

// TrainLinnOS fits the LinnOS baseline on a collected log.
func TrainLinnOS(log []Record, seed int64) (*LinnOSModel, error) { return linnos.Train(log, seed) }

// ---- Cluster ----

// ClusterConfig describes the Ceph-like distributed setting of §6.3.
type ClusterConfig = cluster.Config

// ClusterResult summarizes one cluster run.
type ClusterResult = cluster.Result

// ClusterPolicy selects the cluster routing policy.
type ClusterPolicy = cluster.Policy

// Cluster routing policies.
const (
	ClusterBaseline = cluster.Baseline
	ClusterRandom   = cluster.Random
	ClusterHeimdall = cluster.Heimdall
)

// DefaultClusterConfig returns a scaled-down §6.3 testbed.
func DefaultClusterConfig(seed int64) ClusterConfig { return cluster.DefaultConfig(seed) }

// TrainClusterModel trains the shared OSD admission model.
func TrainClusterModel(cfg ClusterConfig) (*Model, error) { return cluster.TrainModel(cfg) }

// RunCluster simulates the cluster under a policy.
func RunCluster(cfg ClusterConfig, pol ClusterPolicy, m *Model) ClusterResult {
	return cluster.Run(cfg, pol, m)
}

// ---- Metrics & features ----

// MetricsReport bundles the five §6.4 accuracy metrics.
type MetricsReport = metrics.Report

// LatencyStats summarizes a latency sample.
type LatencyStats = metrics.LatencyStats

// FeatureWindow is the rolling completed-I/O history a deployment feeds the
// model.
type FeatureWindow = feature.Window

// NewFeatureWindow creates a history window of the given depth.
func NewFeatureWindow(depth int) *FeatureWindow { return feature.NewWindow(depth) }

// HistEntry is one completed I/O's contribution to history.
type HistEntry = feature.Hist

// Thresholds are the period-labeling thresholds (§3.1).
type Thresholds = label.Thresholds

// SearchThresholds runs the gradient-descent threshold search on a read log.
func SearchThresholds(reads []Record) Thresholds {
	return label.Search(reads, label.SearchOptions{})
}

// PeriodLabel labels a read log with period-based accurate labeling.
func PeriodLabel(reads []Record, t Thresholds) []int { return label.Period(reads, t) }
