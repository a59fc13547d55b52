package core

import "repro/internal/iolog"

// Retrain rebuilds the model with the same configuration on fresh records
// (typically the last monitoring window before a drift.Strategy fired,
// §7). The original model is untouched; deployment swaps atomically to the
// returned one.
func (m *Model) Retrain(recent []iolog.Record) (*Model, error) {
	return Train(recent, m.cfg)
}

// WindowAccuracy scores the model against reference labels over one
// monitoring window and returns ROC-AUC — the paper's accuracy metric
// throughout §6.4 and the §7 monitoring signal. (Plain accuracy saturates
// because fast I/Os dominate.)
func (m *Model) WindowAccuracy(reads []iolog.Record, refLabels []int) float64 {
	if len(reads) == 0 {
		return 1
	}
	return m.Evaluate(reads, refLabels).ROCAUC
}
