package nn

import (
	"math"
	"math/rand"
	"testing"
)

// goldenData is a seeded 11-input set whose label depends non-linearly on
// the row, with 10% label noise. 300 rows leave a ragged last batch at
// Batch 64.
func goldenData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for r := range X {
		row := make([]float64, 11)
		for i := range row {
			row[i] = rng.Float64()*2 - 1
		}
		s := row[0]*row[1] + math.Sin(3*row[2]) - 0.5*row[3] + row[10]*row[10]
		if s > 0.2 {
			y[r] = 1
		}
		if rng.Float64() < 0.1 {
			y[r] = 1 - y[r]
		}
		X[r] = row
	}
	return X, y
}

// BenchmarkTrain times one epoch of the deployed 11-128-16-1 network over
// 4 096 rows from a fresh initialization. ns/MAC divides by the nominal
// multiply-adds of an epoch: per row, the forward pass, the weight gradient
// and the back-delta of every layer but the first (units skipped for a
// zero delta still count).
func BenchmarkTrain(b *testing.B) {
	X, y := goldenData(4096, 77)
	cfg := HeimdallConfig(11, 9)
	cfg.Epochs = 1
	probe, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	macs := 3*probe.MulCount() - cfg.Inputs*cfg.Layers[0].Units
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(X))*float64(macs)), "ns/MAC")
}
