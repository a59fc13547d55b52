package core

import (
	"testing"
	"time"

	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// BenchmarkCoreTrain times core.Train end to end (labeling, filtering,
// features, scaling, 8 epochs over at most 8 000 rows, calibration and
// quantization) on a 2-second MSR-style log. train-ms is the gradient
// descent share alone, as Report.TrainTime measures it.
func BenchmarkCoreTrain(b *testing.B) {
	tr := trace.Generate(trace.MSRStyle(5, 2*time.Second))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), 5))
	cfg := quickCfg(5)
	var train time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(log, cfg)
		if err != nil {
			b.Fatal(err)
		}
		train += m.Report().TrainTime
	}
	b.ReportMetric(float64(train.Milliseconds())/float64(b.N), "train-ms")
}
