// The training goldens pin every trained weight and bias bit for bit. Go may
// fuse x*y+z into one fused multiply-add on arm64, which rounds once instead
// of twice and so changes the bits. The amd64 compiler does not fuse, at any
// GOAMD64 level, so the goldens hold on amd64 only, hence the build
// constraint.

//go:build amd64

package nn

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/train_golden.txt")

// hashNet folds the bits of every Snapshot weight and bias, then the
// training stats, into one FNV-64a hash.
func hashNet(n *Network, st TrainStats) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	s := n.Snapshot()
	for li := range s.Layers {
		for _, w := range s.Weights[li] {
			put(math.Float64bits(w))
		}
		for _, v := range s.Biases[li] {
			put(math.Float64bits(v))
		}
	}
	put(uint64(st.Epochs))
	put(math.Float64bits(st.FinalLoss))
	return fmt.Sprintf("%016x epochs=%d", h.Sum64(), st.Epochs)
}

type goldenCase struct {
	name string
	cfg  Config
	rows int
	// finetune, when set, trains a Clone for this many more epochs at a
	// smaller step after the first run, and hashes the clone.
	finetune int
}

func goldenCases() []goldenCase {
	base := func(hidden ...LayerSpec) Config {
		return Config{
			Inputs: 11, Layers: append(hidden, LayerSpec{1, Sigmoid}),
			Seed: 5, Loss: BCE, Optimizer: Adam, LR: 0.01, Epochs: 4, Batch: 64,
		}
	}
	var cs []goldenCase
	// Hidden widths 13 and 6 leave remainders after every 4-wide block.
	for _, act := range []Activation{ReLU, LeakyReLU, PReLU, SELU, Sigmoid, Tanh, Linear} {
		cs = append(cs, goldenCase{name: "hidden-" + act.String(), cfg: base(LayerSpec{13, act}, LayerSpec{6, act}), rows: 300})
	}
	heim := HeimdallConfig(11, 9)
	heim.Epochs = 3
	cs = append(cs, goldenCase{name: "heimdall-11-128-16-1", cfg: heim, rows: 300})

	softmax := base(LayerSpec{12, ReLU})
	softmax.Layers = []LayerSpec{{12, ReLU}, {2, Softmax}}
	softmax.Loss = CE
	cs = append(cs, goldenCase{name: "softmax-ce", cfg: softmax, rows: 300})

	mse := base(LayerSpec{10, Tanh})
	mse.Layers = []LayerSpec{{10, Tanh}, {1, Linear}}
	mse.Loss = MSE
	cs = append(cs, goldenCase{name: "linear-mse", cfg: mse, rows: 300})

	sigMSE := base(LayerSpec{9, ReLU})
	sigMSE.Loss = MSE
	cs = append(cs, goldenCase{name: "sigmoid-mse", cfg: sigMSE, rows: 300})

	sgd := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	sgd.Optimizer = SGD
	sgd.LR = 0.05
	cs = append(cs, goldenCase{name: "sgd-momentum", cfg: sgd, rows: 300})

	pw := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	pw.PosWeight = 3
	cs = append(cs, goldenCase{name: "posweight-3", cfg: pw, rows: 300})

	wd := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	wd.WeightDecay = 1e-3
	cs = append(cs, goldenCase{name: "weight-decay", cfg: wd, rows: 300})
	wdSGD := wd
	wdSGD.Optimizer = SGD
	cs = append(cs, goldenCase{name: "weight-decay-sgd", cfg: wdSGD, rows: 300})

	// A step this large makes the loss oscillate, so Patience 2 stops
	// training well before 40 epochs.
	pat := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	pat.LR = 0.2
	pat.Epochs = 40
	pat.Patience = 2
	cs = append(cs, goldenCase{name: "patience", cfg: pat, rows: 300})

	even := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	cs = append(cs, goldenCase{name: "even-batches", cfg: even, rows: 256})

	b1 := base(LayerSpec{7, ReLU})
	b1.Batch = 1
	b1.Epochs = 2
	cs = append(cs, goldenCase{name: "batch-1", cfg: b1, rows: 120})

	ft := base(LayerSpec{16, ReLU}, LayerSpec{8, ReLU})
	cs = append(cs, goldenCase{name: "clone-finetune", cfg: ft, rows: 300, finetune: 2})
	return cs
}

func runGolden(t *testing.T, c goldenCase) string {
	t.Helper()
	X, y := goldenData(c.rows, 77)
	net, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := net.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if c.finetune > 0 {
		clone := net.Clone()
		clone.Retune(c.finetune, c.cfg.LR/4)
		X2, y2 := goldenData(c.rows, 78)
		if st, err = clone.Train(X2, y2); err != nil {
			t.Fatal(err)
		}
		net = clone
	}
	if c.cfg.Patience > 0 && st.Epochs >= c.cfg.Epochs {
		t.Fatalf("%s: Patience never fired (%d epochs)", c.name, st.Epochs)
	}
	return hashNet(net, st)
}

// TestTrainGolden pins the exact bits Train produces across the activation,
// loss, optimizer and batching matrix. Any change to the order of a
// floating-point sum shows up here. Run with -update only for a change that
// is meant to move the models, and say why in the commit.
func TestTrainGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&got, "%s %s\n", c.name, runGolden(t, c))
	}
	path := filepath.Join("testdata", "train_golden.txt")
	if *update {
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
