package nn

import "math"

// dense is the one product the float network runs on. For p < np, q < nq:
//
//	c[p*ldc+q] = bias[q] + Σ_{k<nk} a[p*lda+k] · b[q*ldb+k]
//
// A nil bias starts every sum at +0. Each sum is accumulated in one
// variable, from its bias, in ascending k, so the blocked product rounds
// exactly as a plain dot-product loop does: blocking changes which sums
// advance together, never the order of any one sum. The forward pass
// (a = activations, b = weight rows), the weight gradient (a = deltas and
// b = activations, both unit-major) and the back-delta (a = transposed
// weights, b = row-major deltas) are all this product.
//
// Blocks are 3 rows of a by 2 rows of b: six independent accumulator
// chains hide the add latency and five operand loads feed six
// multiply-adds. 4×2 and 4×4 blocks were measured slower: the Go compiler
// runs out of registers for them and spills accumulators to the stack.
//
//heimdall:hotpath
func dense(c []float64, ldc int, a []float64, lda, np int, b []float64, ldb, nq int, bias []float64, nk int) {
	p := 0
	for ; p+3 <= np; p += 3 {
		a0 := a[p*lda : p*lda+nk]
		a1 := a[(p+1)*lda : (p+1)*lda+nk][:len(a0)]
		a2 := a[(p+2)*lda : (p+2)*lda+nk][:len(a0)]
		c0 := c[p*ldc : p*ldc+nq]
		c1 := c[(p+1)*ldc : (p+1)*ldc+nq]
		c2 := c[(p+2)*ldc : (p+2)*ldc+nq]
		q := 0
		for ; q+2 <= nq; q += 2 {
			b0 := b[q*ldb : q*ldb+nk][:len(a0)]
			b1 := b[(q+1)*ldb : (q+1)*ldb+nk][:len(a0)]
			var s00, s01 float64
			if bias != nil {
				s00, s01 = bias[q], bias[q+1]
			}
			s00, s01, s10, s11, s20, s21 := block32(a0, a1, a2, b0, b1, s00, s01)
			c0[q], c0[q+1] = s00, s01
			c1[q], c1[q+1] = s10, s11
			c2[q], c2[q+1] = s20, s21
		}
		if q < nq {
			b0 := b[q*ldb : q*ldb+nk][:len(a0)]
			var s0 float64
			if bias != nil {
				s0 = bias[q]
			}
			s1, s2 := s0, s0
			for k, x0 := range a0 {
				y := b0[k]
				s0 += x0 * y
				s1 += a1[k] * y
				s2 += a2[k] * y
			}
			c0[q], c1[q], c2[q] = s0, s1, s2
		}
	}
	for ; p < np; p++ {
		a0 := a[p*lda : p*lda+nk]
		c0 := c[p*ldc : p*ldc+nq]
		q := 0
		for ; q+4 <= nq; q += 4 {
			var s0, s1, s2, s3 float64
			if bias != nil {
				s0, s1, s2, s3 = bias[q], bias[q+1], bias[q+2], bias[q+3]
			}
			c0[q], c0[q+1], c0[q+2], c0[q+3] = block14(a0,
				b[q*ldb:q*ldb+nk], b[(q+1)*ldb:(q+1)*ldb+nk], b[(q+2)*ldb:(q+2)*ldb+nk], b[(q+3)*ldb:(q+3)*ldb+nk],
				s0, s1, s2, s3)
		}
		for ; q < nq; q++ {
			b0 := b[q*ldb : q*ldb+nk][:len(a0)]
			var s float64
			if bias != nil {
				s = bias[q]
			}
			for k, x := range a0 {
				s += x * b0[k]
			}
			c0[q] = s
		}
	}
}

// block32 is one 3×2 block of dense: the dot products of a0, a1, a2 with
// b0 and b1, each started from s0 (against b0) or s1 (against b1). It is
// its own function so that the loop has the integer registers to itself.
func block32(a0, a1, a2, b0, b1 []float64, s0, s1 float64) (s00, s01, s10, s11, s20, s21 float64) {
	s00, s01, s10, s11, s20, s21 = s0, s1, s0, s1, s0, s1
	a1, a2, b0, b1 = a1[:len(a0)], a2[:len(a0)], b0[:len(a0)], b1[:len(a0)]
	for k, x0 := range a0 {
		x1, x2, y0, y1 := a1[k], a2[k], b0[k], b1[k]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
		s20 += x2 * y0
		s21 += x2 * y1
	}
	return
}

// block14 is a single row of dense, four outputs at a time: the dot
// products of a0 with b0…b3, started from s0…s3. A row left over from
// the 3-row blocking, and every PredictInto, runs here.
func block14(a0, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
	for k, x := range a0 {
		s0 += x * b0[k]
		s1 += x * b1[k]
		s2 += x * b2[k]
		s3 += x * b3[k]
	}
	return s0, s1, s2, s3
}

// transpose writes the rows×cols row-major plane src into dst as cols×rows.
// Four source rows go at a time, so each write fills four adjacent
// destination slots instead of striding across the whole plane.
func transpose(dst, src []float64, rows, cols int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*cols : (r+1)*cols]
		s1 := src[(r+1)*cols : (r+2)*cols][:len(s0)]
		s2 := src[(r+2)*cols : (r+3)*cols][:len(s0)]
		s3 := src[(r+3)*cols : (r+4)*cols][:len(s0)]
		for c, v := range s0 {
			d := dst[c*rows+r : c*rows+r+4]
			d[0], d[1], d[2], d[3] = v, s1[c], s2[c], s3[c]
		}
	}
	for ; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// relu is max(x, +0) without a branch: clearing every bit of a number whose
// sign bit is set leaves +0. Activation signs in a batch are close to
// random, so a compare-and-branch here mispredicts about half the time.
func relu(x float64) float64 {
	u := math.Float64bits(x)
	return math.Float64frombits(u &^ uint64(int64(u)>>63))
}

// reluDeriv is ReLU's derivative written in its output y = relu(x): y is
// +0 or positive, so x > 0 exactly when y's bits are nonzero.
func reluDeriv(y float64) float64 {
	u := math.Float64bits(y)
	return float64(int64((u | -u) >> 63))
}
