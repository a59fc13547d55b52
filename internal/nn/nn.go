// Package nn is a small, dependency-free neural-network library sufficient
// for the Heimdall pipeline: fully-connected layers, the activation
// functions swept in Fig. 9d/9e, SGD and Adam training, binary and softmax
// outputs, and fixed-point quantized inference (§4.1).
//
// Everything is deterministic given a seed. The library is sized for
// latency-critical storage models (tens of thousands of parameters), not for
// deep learning at large.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies a neuron activation function.
type Activation int

const (
	// ReLU is max(0, x).
	ReLU Activation = iota
	// LeakyReLU is x for x>0, 0.01x otherwise.
	LeakyReLU
	// PReLU is x for x>0, 0.25x otherwise (fixed-parameter variant).
	PReLU
	// SELU is the self-normalizing exponential linear unit.
	SELU
	// Sigmoid is 1/(1+e^-x).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
	// Linear is the identity.
	Linear
	// Softmax normalizes a layer to a probability simplex (output layers
	// only).
	Softmax
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky-relu"
	case PReLU:
		return "prelu"
	case SELU:
		return "selu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	case Softmax:
		return "softmax"
	}
	return "unknown"
}

const (
	seluAlpha  = 1.6732632423543772
	seluLambda = 1.0507009873554805
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		return relu(x)
	case LeakyReLU:
		if x > 0 {
			return x
		}
		return 0.01 * x
	case PReLU:
		if x > 0 {
			return x
		}
		return 0.25 * x
	case SELU:
		if x > 0 {
			return seluLambda * x
		}
		return seluLambda * seluAlpha * (math.Exp(x) - 1)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// deriv is the derivative at pre-activation x written in the output
// y = apply(x) alone, so training keeps no pre-activations. The ReLU family
// and SELU map x > 0 to y > 0 and x ≤ 0 to y ≤ 0, so y's sign picks the
// branch exactly, even where 0.01·x or e^x − 1 rounds to zero.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		return reluDeriv(y)
	case LeakyReLU:
		if y > 0 {
			return 1
		}
		return 0.01
	case PReLU:
		if y > 0 {
			return 1
		}
		return 0.25
	case SELU:
		if y > 0 {
			return seluLambda
		}
		return y + seluLambda*seluAlpha // λα·e^x = y + λα
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// activate applies the activation in place to a plane of rows of width
// units.
func (a Activation) activate(v []float64, width int) {
	switch a {
	case ReLU:
		for i, x := range v {
			v[i] = relu(x)
		}
	case Softmax:
		for r := 0; r < len(v); r += width {
			row := v[r : r+width]
			softmax(row, row)
		}
	case Linear:
	default:
		for i, x := range v {
			v[i] = a.apply(x)
		}
	}
}

// scaleDeriv multiplies each delta by the derivative at the matching
// output in y.
func (a Activation) scaleDeriv(delta, y []float64) {
	y = y[:len(delta)]
	if a == ReLU {
		for i, v := range y {
			delta[i] *= reluDeriv(v)
		}
		return
	}
	for i, v := range y {
		delta[i] *= a.deriv(v)
	}
}

// LayerSpec declares one layer.
type LayerSpec struct {
	Units int
	Act   Activation
}

// Optimizer selects the weight-update rule.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum.
	SGD Optimizer = iota
	// Adam is the Adam optimizer.
	Adam
)

// Loss selects the training loss.
type Loss int

const (
	// BCE is binary cross-entropy over a single sigmoid output.
	BCE Loss = iota
	// CE is categorical cross-entropy over a softmax output of at least
	// two units.
	CE
	// MSE is mean squared error.
	MSE
)

// Config declares a network and its training hyperparameters.
type Config struct {
	Inputs int
	Layers []LayerSpec // hidden layers then output layer
	Seed   int64

	Optimizer Optimizer
	Loss      Loss
	LR        float64 // default 0.01
	Momentum  float64 // SGD only, default 0.9
	// WeightDecay is the L2 regularization coefficient applied to weights
	// (not biases); 0 disables it.
	WeightDecay float64
	Epochs      int // default 30
	Batch       int // default 64
	// PosWeight multiplies the gradient of positive (slow) samples; 1 means
	// unweighted. The paper's biased-training experiment (§3.6).
	PosWeight float64
	// Patience stops training early after this many epochs without
	// training-loss improvement; 0 disables.
	Patience int
}

// HeimdallConfig is the final NN design of Fig. 9f: 2 hidden ReLU layers of
// 128 and 16 neurons and a single-sigmoid output.
func HeimdallConfig(inputs int, seed int64) Config {
	return Config{
		Inputs: inputs,
		Layers: []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}},
		Seed:   seed,
		Loss:   BCE, Optimizer: Adam, LR: 0.005, Epochs: 30, Batch: 64, PosWeight: 1,
	}
}

type layer struct {
	in, out int
	act     Activation
	w       []float64 // out*in, row-major by output neuron
	b       []float64 // out

	gw, gb []float64 // one mini-batch's gradients
	// optimizer state
	mw, vw, mb, vb []float64
}

// Network is a trained or trainable feed-forward network. Train must not
// run concurrently with anything else on the same network; the forward
// passes (Forward, Predict, Infer, and PredictInto and PredictBatchInto
// with per-goroutine scratch) are safe for concurrent use otherwise.
type Network struct {
	cfg    Config
	layers []*layer
	step   int // Adam timestep

	// tp is the working set of the mini-batch being trained: set by
	// Train, nil when it returns, never copied by Clone.
	//
	//heimdall:owner Train,trainBatch
	tp *planes
}

// New builds a network with deterministic He/Xavier initialization.
func New(cfg Config) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, errors.New("nn: Inputs must be positive")
	}
	if len(cfg.Layers) == 0 {
		return nil, errors.New("nn: at least one layer required")
	}
	last := len(cfg.Layers) - 1
	for li, spec := range cfg.Layers[:last] {
		if spec.Act == Softmax {
			return nil, fmt.Errorf("nn: hidden layer %d is softmax, which is an output activation", li)
		}
	}
	if out := cfg.Layers[last]; cfg.Loss == CE && (out.Act != Softmax || out.Units < 2) {
		return nil, fmt.Errorf("nn: CE loss needs a softmax output of at least 2 units, not %d %v", out.Units, out.Act)
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.9
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.Batch == 0 {
		cfg.Batch = 64
	}
	if cfg.PosWeight == 0 {
		cfg.PosWeight = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	in := cfg.Inputs
	for li, spec := range cfg.Layers {
		if spec.Units <= 0 {
			return nil, fmt.Errorf("nn: layer %d has %d units", li, spec.Units)
		}
		l := &layer{in: in, out: spec.Units, act: spec.Act}
		l.w = make([]float64, in*spec.Units)
		l.b = make([]float64, spec.Units)
		// He init for rectifiers, Xavier otherwise.
		scale := math.Sqrt(2 / float64(in))
		if spec.Act == Sigmoid || spec.Act == Tanh || spec.Act == Softmax || spec.Act == Linear {
			scale = math.Sqrt(1 / float64(in))
		}
		for i := range l.w {
			l.w[i] = rng.NormFloat64() * scale
		}
		l.gw = make([]float64, len(l.w))
		l.gb = make([]float64, len(l.b))
		l.mw = make([]float64, len(l.w))
		l.vw = make([]float64, len(l.w))
		l.mb = make([]float64, len(l.b))
		l.vb = make([]float64, len(l.b))
		n.layers = append(n.layers, l)
		in = spec.Units
	}
	return n, nil
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Clone returns an independent deep copy of the network: weights, biases,
// optimizer state, and the Adam timestep. The clone can be trained further
// without disturbing the original — the warm-start half of continuous
// retraining (clone the champion, fine-tune on fresh data, compare). Train
// on a clone continues from the copied weights because New is the only
// place weights are initialized.
func (n *Network) Clone() *Network {
	c := &Network{cfg: n.cfg, step: n.step}
	c.cfg.Layers = append([]LayerSpec(nil), n.cfg.Layers...)
	for _, l := range n.layers {
		cl := &layer{in: l.in, out: l.out, act: l.act}
		cl.w = append([]float64(nil), l.w...)
		cl.b = append([]float64(nil), l.b...)
		cl.gw = make([]float64, len(l.w))
		cl.gb = make([]float64, len(l.b))
		cl.mw = append([]float64(nil), l.mw...)
		cl.vw = append([]float64(nil), l.vw...)
		cl.mb = append([]float64(nil), l.mb...)
		cl.vb = append([]float64(nil), l.vb...)
		c.layers = append(c.layers, cl)
	}
	return c
}

// Retune adjusts the training hyperparameters for a subsequent Train call —
// the knob a warm-start fine-tune turns (few epochs, smaller step) without
// rebuilding the network. Non-positive arguments keep the current value.
func (n *Network) Retune(epochs int, lr float64) {
	if epochs > 0 {
		n.cfg.Epochs = epochs
	}
	if lr > 0 {
		n.cfg.LR = lr
	}
}

// Outputs returns the width of the output layer.
func (n *Network) Outputs() int { return n.layers[len(n.layers)-1].out }

// ParamCount returns (weights, biases) — the paper's §6.6 accounting.
func (n *Network) ParamCount() (weights, biases int) {
	for _, l := range n.layers {
		weights += len(l.w)
		biases += len(l.b)
	}
	return weights, biases
}

// MulCount returns the multiply operations of one forward pass.
func (n *Network) MulCount() int {
	m := 0
	for _, l := range n.layers {
		m += l.in * l.out
	}
	return m
}

// MemoryBytes returns the resident size of the deployed float model at 8
// bytes per parameter — the paper's §6.6 accounting (28KB for Heimdall's
// 3617 parameters, 68KB for LinnOS's 8706).
func (n *Network) MemoryBytes() int {
	w, b := n.ParamCount()
	return 8 * (w + b)
}

// forwardPlane runs the layer on rows input rows, row-major in in, and
// writes their activations row-major to out.
func (l *layer) forwardPlane(out, in []float64, rows int) {
	dense(out, l.out, in, l.in, rows, l.w, l.in, l.out, l.b, l.in)
	l.act.activate(out[:rows*l.out], l.out)
}

func softmax(z, out []float64) {
	maxz := z[0]
	for _, v := range z[1:] {
		if v > maxz {
			maxz = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxz)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Forward runs one forward pass and returns the output layer's
// activations in a fresh slice.
func (n *Network) Forward(x []float64) []float64 {
	w := n.ScratchSize()
	buf := make([]float64, 2*w)
	return n.forwardRow(x, buf[:w], buf[w:])
}

// Predict returns the probability of the positive (slow) class: the single
// sigmoid output, or the second softmax output for 2-class networks. It
// allocates its own scratch, like Infer.
func (n *Network) Predict(x []float64) float64 { return n.Infer(x) }

// ScratchSize returns the length of the scratch buffers PredictInto needs:
// the widest layer of the network.
func (n *Network) ScratchSize() int {
	w := 0
	for _, l := range n.layers {
		if l.out > w {
			w = l.out
		}
	}
	return w
}

// PredictInto runs a forward pass using caller-provided scratch slices
// (each at least ScratchSize long) and returns the probability of the
// positive class — the float counterpart of QuantNetwork.PredictInto. It
// allocates nothing, does not modify x, and is safe for concurrent use with
// per-goroutine scratch.
//
//heimdall:hotpath
func (n *Network) PredictInto(x []float64, cur, next []float64) float64 {
	out := n.forwardRow(x, cur, next)
	return out[len(out)-1]
}

// forwardRow runs x through every layer, ping-ponging between cur and
// next, and returns the output activations, a prefix of one of them.
func (n *Network) forwardRow(x []float64, cur, next []float64) []float64 {
	in := x
	for _, l := range n.layers {
		out := cur[:l.out]
		l.forwardPlane(out, in, 1)
		in = out
		cur, next = next, cur
	}
	return in
}

// Infer is a goroutine-safe forward pass that allocates its own buffers.
// Hot loops should allocate scratch once and call PredictInto instead.
func (n *Network) Infer(x []float64) float64 {
	w := n.ScratchSize()
	buf := make([]float64, 2*w)
	return n.PredictInto(x, buf[:w], buf[w:])
}

// TrainStats reports the training run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
}

// Train fits the network with mini-batch gradient descent. Labels y are
// 0/1 for BCE and class indices encoded as 0/1 for the 2-class CE case.
func (n *Network) Train(X [][]float64, y []float64) (TrainStats, error) {
	if len(X) == 0 {
		return TrainStats{}, errors.New("nn: empty training set")
	}
	if len(X) != len(y) {
		return TrainStats{}, fmt.Errorf("nn: %d rows vs %d labels", len(X), len(y))
	}
	for i, r := range X {
		if len(r) != n.cfg.Inputs {
			return TrainStats{}, fmt.Errorf("nn: row %d has width %d, want %d", i, len(r), n.cfg.Inputs)
		}
	}
	n.tp = n.newPlanes(min(n.cfg.Batch, len(X)))
	rng := rand.New(rand.NewSource(n.cfg.Seed + 1))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	var stats TrainStats
	best := math.Inf(1)
	sinceBest := 0
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += n.cfg.Batch {
			end := start + n.cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += n.trainBatch(X, y, idx[start:end])
		}
		epochLoss /= float64(len(idx))
		stats.Epochs = epoch + 1
		stats.FinalLoss = epochLoss
		if n.cfg.Patience > 0 {
			if epochLoss < best-1e-6 {
				best = epochLoss
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= n.cfg.Patience {
					break
				}
			}
		}
	}
	n.tp = nil
	return stats, nil
}

// planes is one mini-batch's working set, sized for rows samples. Planes
// are row-major (sample × unit) or, where named …T, unit-major
// (unit × sample).
type planes struct {
	rows int
	// act[0] holds the batch's input rows and act[l+1] layer l's
	// activations: the forward pass writes them, the backward pass reads
	// them.
	act [][]float64
	// dT holds the deltas of the layer being back-propagated and prevT
	// those of the layer below it, unit-major so that a unit's deltas are
	// one contiguous row.
	dT, prevT []float64
	// dRow is the live part of dT, row-major, for the back-delta; actT is
	// the layer's input activations, unit-major, for the weight gradient.
	dRow, actT []float64
	// wbuf holds the live units' packed gradient rows, then their packed
	// transposed weights for the back-delta.
	wbuf []float64
	// live lists the units whose delta is nonzero somewhere in the batch.
	live []int
}

func (n *Network) newPlanes(rows int) *planes {
	maxw, maxp := n.cfg.Inputs, 0
	pl := &planes{rows: rows, act: [][]float64{make([]float64, rows*n.cfg.Inputs)}}
	for _, l := range n.layers {
		pl.act = append(pl.act, make([]float64, rows*l.out))
		maxw = max(maxw, l.out)
		maxp = max(maxp, len(l.w))
	}
	pl.dT = make([]float64, rows*maxw)
	pl.prevT = make([]float64, rows*maxw)
	pl.dRow = make([]float64, rows*maxw)
	pl.actT = make([]float64, rows*maxw)
	pl.wbuf = make([]float64, maxp)
	pl.live = make([]int, 0, maxw)
	return pl
}

// trainBatch runs one mini-batch layer-major: each layer's forward pass,
// weight gradient and back-delta is one dense product over the whole
// batch. Every sum keeps the order of a per-sample loop — forward from the
// bias in input order, gradients from +0 in batch order, back-deltas from
// +0 in unit order — so training is bit-identical to one. Units whose
// delta is zero over the whole batch are left out of both backward
// products: each of their terms is ±0, and adding ±0 to a sum that started
// at +0 changes nothing, because such a sum is never −0.
func (n *Network) trainBatch(X [][]float64, y []float64, batch []int) float64 {
	nb := len(batch)
	pl := n.tp
	if pl == nil || pl.rows < nb {
		pl = n.newPlanes(nb)
		n.tp = pl
	}
	width := n.cfg.Inputs
	in := pl.act[0][:nb*width]
	for p, bi := range batch {
		copy(in[p*width:(p+1)*width], X[bi])
	}
	for li, l := range n.layers {
		l.forwardPlane(pl.act[li+1], pl.act[li], nb)
	}

	// Output deltas (dL/dz of the output layer) and the loss.
	out := n.layers[len(n.layers)-1]
	ow := out.out
	dT, prevT := pl.dT, pl.prevT
	// BCE and MSE set only the first unit's delta; any other output unit
	// gets none rather than a stale one.
	clear(dT[:ow*nb])
	var loss float64
	for p, bi := range batch {
		target := y[bi]
		a := pl.act[len(n.layers)][p*ow : (p+1)*ow]
		w := 1.0
		if target > 0.5 && n.cfg.PosWeight != 1 {
			w = n.cfg.PosWeight
		}
		switch n.cfg.Loss {
		case BCE:
			pr := clampProb(a[0])
			loss += -w * (target*math.Log(pr) + (1-target)*math.Log(1-pr))
			dT[p] = w * (pr - target) // sigmoid+BCE shortcut
		case CE:
			// Two-class softmax; target selects the class.
			cls := 0
			if target > 0.5 {
				cls = 1
			}
			loss += -w * math.Log(clampProb(a[cls]))
			for o, v := range a {
				t := 0.0
				if o == cls {
					t = 1
				}
				dT[o*nb+p] = w * (v - t)
			}
		default: // MSE
			e := a[0] - target
			loss += w * e * e / 2
			dT[p] = w * e * out.act.deriv(a[0])
		}
	}

	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		live := pl.pack(dT, nb, l.out)
		nl := len(live)
		x := pl.act[li][:nb*l.in]
		transpose(pl.actT, x, nb, l.in)
		// gw[o][i] = +0 + Σ_p dT[o][p]·x[p][i] for the live units o.
		dense(pl.wbuf, l.in, dT, nb, nl, pl.actT, nb, l.in, nil, nb)
		l.setGrads(pl.wbuf, dT, live, nb)
		if li == 0 {
			break
		}
		// prevT[i][p] = (+0 + Σ_o w[o][i]·dT[o][p]) · deriv, over the
		// live units o.
		transpose(pl.dRow, dT, nl, nb)
		wT := pl.wbuf[:l.in*nl]
		for r, o := range live {
			for i, v := range l.w[o*l.in : (o+1)*l.in] {
				wT[i*nl+r] = v
			}
		}
		dense(prevT, nb, wT, nl, l.in, pl.dRow, nl, nb, nil, nl)
		n.layers[li-1].act.scaleDeriv(prevT[:l.in*nb], pl.actT)
		dT, prevT = prevT, dT
	}

	scale := 1 / float64(nb)
	n.step++
	for _, l := range n.layers {
		n.applyGrads(l, scale)
	}
	return loss
}

// pack finds the live units of the unit-major delta plane dT, width rows of
// rows samples, and moves their rows, in unit order, to the front of dT.
func (pl *planes) pack(dT []float64, rows, width int) []int {
	live := pl.live[:0]
	for o := 0; o < width; o++ {
		row := dT[o*rows : (o+1)*rows]
		var bits uint64
		for _, v := range row {
			bits |= math.Float64bits(v) << 1 // −0 counts as zero
		}
		if bits == 0 {
			continue
		}
		if r := len(live); r != o {
			copy(dT[r*rows:(r+1)*rows], row)
		}
		live = append(live, o)
	}
	return live
}

// setGrads installs one batch's gradients: the live units' weight rows
// arrive packed in g and their bias gradients are the sums of their rows
// in the packed delta plane dT; every other unit's gradient is zero.
func (l *layer) setGrads(g, dT []float64, live []int, rows int) {
	r := 0
	for o := 0; o < l.out; o++ {
		gw := l.gw[o*l.in : (o+1)*l.in]
		if r == len(live) || live[r] != o {
			clear(gw)
			l.gb[o] = 0
			continue
		}
		copy(gw, g[r*l.in:(r+1)*l.in])
		var s float64
		for _, d := range dT[r*rows : (r+1)*rows] {
			s += d
		}
		l.gb[o] = s
		r++
	}
}

func (n *Network) applyGrads(l *layer, scale float64) {
	lr := n.cfg.LR
	wd := n.cfg.WeightDecay
	switch n.cfg.Optimizer {
	case Adam:
		const b1, b2, eps = 0.9, 0.999, 1e-8
		bc1 := 1 - math.Pow(b1, float64(n.step))
		bc2 := 1 - math.Pow(b2, float64(n.step))
		// Local slices of one length let the compiler drop the bounds
		// checks and keep the slice headers in registers. The moments and
		// the step are two passes: each loop's dependency chain is then
		// short enough for the divider to stay busy.
		w, gw, mw, vw := l.w, l.gw[:len(l.w)], l.mw[:len(l.w)], l.vw[:len(l.w)]
		for i, wi := range w {
			g := gw[i]*scale + wd*wi
			mw[i] = b1*mw[i] + (1-b1)*g
			vw[i] = b2*vw[i] + (1-b2)*g*g
		}
		for i, wi := range w {
			w[i] = wi - lr*(mw[i]/bc1)/(math.Sqrt(vw[i]/bc2)+eps)
		}
		b, gb, mb, vb := l.b, l.gb[:len(l.b)], l.mb[:len(l.b)], l.vb[:len(l.b)]
		for i, g := range gb {
			g *= scale
			mb[i] = b1*mb[i] + (1-b1)*g
			vb[i] = b2*vb[i] + (1-b2)*g*g
		}
		for i, bi := range b {
			b[i] = bi - lr*(mb[i]/bc1)/(math.Sqrt(vb[i]/bc2)+eps)
		}
	default: // SGD + momentum, reusing mw/mb as velocity
		mom := n.cfg.Momentum
		for i := range l.w {
			l.mw[i] = mom*l.mw[i] - lr*(l.gw[i]*scale+wd*l.w[i])
			l.w[i] += l.mw[i]
		}
		for i := range l.b {
			l.mb[i] = mom*l.mb[i] - lr*l.gb[i]*scale
			l.b[i] += l.mb[i]
		}
	}
}

func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
