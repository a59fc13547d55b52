package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestDenseMatchesDotLoop pins dense bit for bit to one plain dot-product
// loop per output, at every remainder of the 3×2 blocking, with and
// without a bias.
func TestDenseMatchesDotLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, np := range []int{1, 2, 3, 4, 5, 7} {
		for _, nq := range []int{1, 2, 3, 5} {
			for _, nk := range []int{0, 1, 2, 11} {
				lda, ldb, ldc := nk+1, nk+2, nq+3 // strides wider than the rows
				a := make([]float64, np*lda)
				b := make([]float64, nq*ldb)
				bias := make([]float64, nq)
				for _, v := range [][]float64{a, b, bias} {
					for i := range v {
						v[i] = rng.NormFloat64()
					}
				}
				for _, bs := range [][]float64{bias, nil} {
					c := make([]float64, np*ldc)
					dense(c, ldc, a, lda, np, b, ldb, nq, bs, nk)
					for p := 0; p < np; p++ {
						for q := 0; q < nq; q++ {
							var want float64
							if bs != nil {
								want = bs[q]
							}
							for k := 0; k < nk; k++ {
								want += a[p*lda+k] * b[q*ldb+k]
							}
							if got := c[p*ldc+q]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("np=%d nq=%d nk=%d bias=%v: c[%d][%d] = %v, want %v", np, nq, nk, bs != nil, p, q, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrainBatchZeroAlloc asserts a training step allocates nothing once
// the batch planes exist.
func TestTrainBatchZeroAlloc(t *testing.T) {
	X, y := goldenData(256, 3)
	net, err := New(HeimdallConfig(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = 3 * i
	}
	net.trainBatch(X, y, batch)
	if a := testing.AllocsPerRun(20, func() {
		net.trainBatch(X, y, batch)
	}); a != 0 {
		t.Fatalf("trainBatch allocates %.1f per batch", a)
	}
}

// TestFloatBatchMatchesRow pins the batched float forward pass bit-equal to
// the single-row one at batch sizes on and off the 3-row blocking, with a
// scratch sized for the batch and with one that must grow.
func TestFloatBatchMatchesRow(t *testing.T) {
	shapes := [][]LayerSpec{
		{{128, ReLU}, {16, ReLU}, {1, Sigmoid}},
		{{32, LeakyReLU}, {1, Linear}},
		{{16, Tanh}, {8, SELU}, {2, Softmax}},
	}
	rng := rand.New(rand.NewSource(2))
	for _, shape := range shapes {
		net := allocNet(t, shape)
		cur := make([]float64, net.ScratchSize())
		next := make([]float64, net.ScratchSize())
		for _, bs := range []int{1, 3, 64, 257} {
			xs := make([][]float64, bs)
			for r := range xs {
				xs[r] = make([]float64, 11)
				for i := range xs[r] {
					xs[r][i] = rng.NormFloat64()
				}
			}
			for _, s := range []*Scratch{NewScratch(net, bs), NewScratch(net, 1)} {
				got := make([]float64, bs)
				net.PredictBatchInto(xs, got, s)
				for r, x := range xs {
					want := net.PredictInto(x, cur, next)
					if math.Float64bits(got[r]) != math.Float64bits(want) {
						t.Fatalf("%v batch %d row %d: PredictBatchInto %v != PredictInto %v", shape, bs, r, got[r], want)
					}
				}
			}
		}
	}
}

// TestPredictAfterTrain checks that Train drops its batch planes and that
// every forward pass still agrees afterwards, on the trained network and
// on a clone.
func TestPredictAfterTrain(t *testing.T) {
	X, y := goldenData(300, 4)
	cfg := HeimdallConfig(11, 2)
	cfg.Epochs = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if net.tp != nil {
		t.Fatal("Train kept its batch planes")
	}
	for _, n := range []*Network{net, net.Clone()} {
		cur := make([]float64, n.ScratchSize())
		next := make([]float64, n.ScratchSize())
		out := make([]float64, len(X))
		n.PredictBatchInto(X, out, NewScratch(n, len(X)))
		for r, x := range X {
			want := n.PredictInto(x, cur, next)
			for name, got := range map[string]float64{
				"Predict": n.Predict(x), "Forward": n.Forward(x)[0], "Infer": n.Infer(x), "PredictBatchInto": out[r],
			} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: %s %v != PredictInto %v", r, name, got, want)
				}
			}
		}
	}
}

// derivFromInput is the derivative written in the pre-activation x, as
// training computed it before it kept only the outputs.
func derivFromInput(a Activation, x, y float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return 1
		}
		return 0.01
	case PReLU:
		if x > 0 {
			return 1
		}
		return 0.25
	case SELU:
		if x > 0 {
			return seluLambda
		}
		return y + seluLambda*seluAlpha
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// TestDerivSignFromOutput checks that the output alone determines the
// derivative, bit for bit, including where the negative branch rounds to
// zero and where the activation saturates.
func TestDerivSignFromOutput(t *testing.T) {
	grid := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324,
		40, -40, 1, -1, 0.5, -0.5, 3, -3, 800, -800,
	}
	for _, a := range []Activation{ReLU, LeakyReLU, PReLU, SELU, Sigmoid, Tanh, Linear} {
		for _, x := range grid {
			y := a.apply(x)
			got, want := a.deriv(y), derivFromInput(a, x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v at x=%v (y=%v): deriv %v, want %v", a, x, y, got, want)
			}
			if a == ReLU && x <= 0 && math.Float64bits(y) != 0 {
				t.Errorf("relu(%v) = %v, want +0", x, y)
			}
		}
	}
}
