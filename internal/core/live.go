package core

import (
	"fmt"

	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/trace"
)

// LiveSample is one harvested completion observation from the serving
// layer: the request identity the wire protocol carries, the measured
// latency, and the feature row the admission model saw (or would have
// seen) for this I/O at decide time. It is the unit the
// continuous-learning reservoir stores — the identity fields are a flat
// value type, and Row is an owned buffer the harvester recycles in place,
// so per-device reservoirs stay alloc-free at steady state.
type LiveSample struct {
	Device uint32
	// Seq is the per-device completion index (0, 1, 2, ...). It orders
	// samples within a device deterministically regardless of how devices
	// were sharded or interleaved at harvest time.
	Seq       uint64
	LatencyNs uint64
	QueueLen  uint32
	Size      uint32
	// Row is the raw feature row as the serving trackers produced it,
	// reconstructed by the harvester from the device's completion stream
	// (see lifecycle.Harvester). Training and judging on these rows keeps
	// the learning loop inside the serving feature distribution — the
	// whole point of harvesting (feature-row, latency) pairs rather than
	// identities alone. Nil on identity-only samples, which the live
	// trainers skip.
	Row []float64
}

// LiveLabels labels harvested completions from their (size, latency)
// pairs alone. Period labeling needs real arrival timestamps, which live
// completions deliberately do not carry, so it is coerced to the
// size-normalized cutoff — the live-retraining labeler that removes plain
// cutoff's size confound (Fig. 3b) without arrival reconstruction.
func LiveLabels(samples []LiveSample, cfg Config) []int {
	recs := make([]iolog.Record, len(samples))
	for i, s := range samples {
		recs[i] = iolog.Record{
			Size:     int32(s.Size),
			Op:       trace.Read,
			Latency:  int64(s.LatencyNs),
			QueueLen: int(s.QueueLen),
		}
	}
	if cfg.Labeling == LabelPeriod {
		cfg.Labeling = LabelCutoffSize
	}
	labels, _ := Label(recs, cfg)
	return labels
}

// TrainLiveRows trains a model directly over harvested (feature-row,
// latency) pairs — the cold-start challenger path of continuous
// retraining. The rows are the ones the serving trackers produced, so the
// model trains, calibrates, and deploys in one feature distribution.
// Labels come from LiveLabels; the noise-filter stage is skipped (its
// detectors need arrival structure); joint inference is forced off (live
// rows are single-I/O rows). Samples without a Row are ignored. Rows are
// copied before scaling, so the caller's sample set is untouched.
// Deterministic in (samples, cfg).
func TrainLiveRows(samples []LiveSample, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	cfg.JointSize = 1
	rows, labels, err := liveRows(samples, cfg, cfg.Feature.Width())
	if err != nil {
		return nil, err
	}
	scaler := feature.NewScaler(cfg.Scaler)
	feature.FitTransform(scaler, rows)
	net, err := newNetwork(cfg, len(rows[0]))
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		spec:   cfg.Feature,
		scaler: scaler,
		net:    net,
		report: Report{Samples: len(rows), Kept: len(rows)},
	}
	return m.fit(rows, labels)
}

// FinetuneLiveRows is the warm-start challenger path: clone the model's
// network and continue training it on harvested serving rows, reusing the
// model's fitted scaler so the feature space stays aligned with the copied
// weights. The receiver is untouched; the returned model shares the
// (read-only) scaler and spec but owns its networks, threshold, and
// quantized rungs. epochs <= 0 defaults to 5; the fine-tune uses half the
// configured learning rate, the usual small-step regime for continued
// training.
func (m *Model) FinetuneLiveRows(samples []LiveSample, epochs int) (*Model, error) {
	cfg := m.cfg
	rows, labels, err := liveRows(samples, cfg, m.net.Config().Inputs)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		rows[i] = m.scaler.Transform(r)
	}
	net := m.net.Clone()
	if epochs <= 0 {
		epochs = 5
	}
	net.Retune(epochs, net.Config().LR/2)
	out := &Model{
		cfg:    cfg,
		spec:   m.spec,
		scaler: m.scaler,
		net:    net,
		report: Report{Samples: len(rows), Kept: len(rows)},
	}
	return out.fit(rows, labels)
}

// liveRows copies the rows out of the samples that carry one and labels
// them with LiveLabels. It fails with ErrNoReads when no sample has a row,
// with ErrOneClass when the labels are one class, and when a row is not
// width wide.
func liveRows(samples []LiveSample, cfg Config, width int) ([][]float64, []int, error) {
	rows := make([][]float64, 0, len(samples))
	kept := make([]LiveSample, 0, len(samples))
	for _, s := range samples {
		if s.Row == nil {
			continue
		}
		if len(s.Row) != width {
			return nil, nil, fmt.Errorf("core: live rows are %d wide, the model wants %d", len(s.Row), width)
		}
		rows = append(rows, append([]float64(nil), s.Row...))
		kept = append(kept, s)
	}
	if len(rows) == 0 {
		return nil, nil, ErrNoReads
	}
	labels := LiveLabels(kept, cfg)
	if !hasBothClasses(labels) {
		return nil, nil, ErrOneClass
	}
	return rows, labels, nil
}
