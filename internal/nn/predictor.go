package nn

// Predictor is the unified inference interface over the quantization ladder.
// All three deployment forms implement it:
//
//   - *Network: float64 reference arithmetic (training-side path),
//   - *QuantNetwork: int32 ×1024 fixed point, one shift per hidden layer,
//   - *QuantNetwork8: int8 weights with per-layer symmetric scales and a
//     batch-major tiled kernel.
//
// Callers that held a concrete network type keep working — the
// row-oriented entry points (Network.PredictInto, QuantNetwork.PredictInto)
// remain and score bit-equal to the batch path — but new code should
// program against Predictor so an engine swap (int32 → int8, or an
// experimental predictor) needs no call-site changes.
type Predictor interface {
	// Predict returns P(slow) for one feature-scaled row, allocating its
	// own scratch — the convenience path for cold callers.
	Predict(x []float64) float64

	// PredictBatchInto scores a batch of feature-scaled rows into
	// out[:len(xs)] using caller-provided scratch. Implementations allocate
	// nothing once the scratch has grown to the batch shape, so hot loops
	// can pin allocation-freedom with testing.AllocsPerRun. Rows must all
	// have the network's input width; out must have at least len(xs) room.
	PredictBatchInto(xs [][]float64, out []float64, s *Scratch)

	// ScratchSize is the widest layer of the network — the per-row scratch
	// requirement of the forward pass.
	ScratchSize() int

	// MemoryBytes is the honest deployed footprint: parameters plus scale
	// tables plus the per-row scratch the kernel needs.
	MemoryBytes() int
}

// Compile-time checks: every rung of the ladder is a Predictor.
var (
	_ Predictor = (*Network)(nil)
	_ Predictor = (*QuantNetwork)(nil)
	_ Predictor = (*QuantNetwork8)(nil)
)

// Scratch holds the per-caller buffers any Predictor needs. One Scratch
// serves any engine (it carries buffers for every rung of the ladder), so a
// caller that swaps predictors at runtime keeps its scratch. Kernels grow
// the buffers on demand; undersizing costs a one-time allocation, never
// correctness.
type Scratch struct {
	// float ladder: batch-major activation planes (rows × the wider of
	// the input and the widest layer)
	//
	//heimdall:owner Network.PredictBatchInto,NewScratch
	fa, fb []float64
	// int32 ladder: layer ping-pong buffers
	//
	//heimdall:owner QuantNetwork.PredictBatchInto,NewScratch
	qa, qb []int64
	// int8 ladder: batch-major activation planes (width × batch)
	//
	//heimdall:owner QuantNetwork8.PredictBatchInto,NewScratch
	a8, b8 []int8
	// int8 ladder: output-layer accumulators for one row
	//
	//heimdall:owner QuantNetwork8.PredictBatchInto,NewScratch
	acc []int32
}

// NewScratch sizes a Scratch for p with room for batches of up to maxBatch
// rows (values below 1 are treated as 1).
func NewScratch(p Predictor, maxBatch int) *Scratch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	w := p.ScratchSize()
	fw := w
	if n, ok := p.(*Network); ok {
		// Only the float network runs batch planes; the integer rungs
		// keep one row's worth, which a later swap to float grows.
		fw = n.planeWidth() * maxBatch
	}
	return &Scratch{
		fa:  make([]float64, fw),
		fb:  make([]float64, fw),
		qa:  make([]int64, w),
		qb:  make([]int64, w),
		a8:  make([]int8, w*maxBatch),
		b8:  make([]int8, w*maxBatch),
		acc: make([]int32, w),
	}
}

// PredictBatchInto implements Predictor for the float network: the rows
// are copied into one plane and go through each layer as one dense
// product, the same forward pass training runs. Each score is bit-equal to
// PredictInto's for the row, because every sum keeps its order.
//
//heimdall:hotpath
func (n *Network) PredictBatchInto(xs [][]float64, out []float64, s *Scratch) {
	rows := len(xs)
	if rows == 0 {
		return
	}
	need := n.planeWidth() * rows
	if cap(s.fa) < need {
		s.fa = make([]float64, need)
	}
	if cap(s.fb) < need {
		s.fb = make([]float64, need)
	}
	cur, next := s.fa[:need], s.fb[:need]
	in := n.cfg.Inputs
	for r, x := range xs {
		copy(cur[r*in:(r+1)*in], x)
	}
	for _, l := range n.layers {
		l.forwardPlane(next, cur, rows)
		cur, next = next, cur
	}
	w := n.Outputs()
	for r := range out[:rows] {
		out[r] = cur[r*w+w-1]
	}
}

// planeWidth is the per-row width of PredictBatchInto's planes: the input
// plane and every layer's output plane must fit.
func (n *Network) planeWidth() int { return max(n.cfg.Inputs, n.ScratchSize()) }

// PredictBatchInto implements Predictor for the int32 ladder: a row loop
// over the PredictInto kernel. Integer arithmetic is exact, so this is
// bit-identical to scoring the rows one at a time in any order.
//
//heimdall:hotpath
func (q *QuantNetwork) PredictBatchInto(xs [][]float64, out []float64, s *Scratch) {
	w := q.ScratchSize()
	if cap(s.qa) < w {
		s.qa = make([]int64, w)
		s.qb = make([]int64, w)
	}
	for r, x := range xs {
		out[r] = q.PredictInto(x, s.qa[:w], s.qb[:w])
	}
}
