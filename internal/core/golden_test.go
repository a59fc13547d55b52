// The training goldens pin every trained weight, bias and threshold bit for
// bit. Go may fuse x*y+z into one fused multiply-add on arm64, which rounds
// once instead of twice and so changes the bits. The amd64 compiler does not
// fuse, at any GOAMD64 level, so the goldens hold on amd64 only, hence the
// build constraint.

//go:build amd64

package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/train_golden.txt")

// hashModel folds the bits of every Snapshot weight and bias and of the
// calibrated threshold into one FNV-64a hash. Save bytes are not hashed:
// they embed wall-clock Report times and a gob-encoded map.
func hashModel(m *Model) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	s := m.Net().Snapshot()
	for li := range s.Layers {
		for _, w := range s.Weights[li] {
			put(w)
		}
		for _, v := range s.Biases[li] {
			put(v)
		}
	}
	put(m.Threshold())
	return fmt.Sprintf("%016x epochs=%d", h.Sum64(), m.Report().TrainStats.Epochs)
}

// TestTrainGolden pins core.Train (joint sizes 1 and 4) and the live row
// trainers end to end: labeling, filtering, features, scaling,
// subsampling, gradient descent and threshold calibration — every path
// into fit.
func TestTrainGolden(t *testing.T) {
	_, log := testLog(t, 5, 2*time.Second)
	var got strings.Builder
	for _, joint := range []int{1, 4} {
		cfg := quickCfg(5)
		cfg.Epochs = 4
		cfg.MaxTrainSamples = 3000
		cfg.JointSize = joint
		m, err := Train(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "train-joint%d %s\n", joint, hashModel(m))
	}

	cfg := liveTestConfig(13)
	rowChamp, err := TrainLiveRows(liveRowSamples(6, 1200, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "live-rows-train %s\n", hashModel(rowChamp))
	rowTuned, err := rowChamp.FinetuneLiveRows(liveRowSamples(7, 1200, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "live-rows-finetune %s\n", hashModel(rowTuned))

	path := filepath.Join("testdata", "train_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("training golden mismatch\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
