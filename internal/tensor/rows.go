package tensor

import "math"

// lanes is the number of float32 values one AVX2 register holds. The
// assembly kernels process whole blocks of lanes elements; the remainder
// runs through the Go loop.
const lanes = 8

// AdamStep holds the scalars of one Adam row update: the decay rates, the
// step's bias-correction terms (1 - beta^step) and the learning rate and
// epsilon. AdamRow only reads it, so a value on the caller's stack stays
// there.
type AdamStep struct {
	Beta1, Beta2 float32
	Corr1, Corr2 float32
	LR, Eps      float32
}

// AdamRow applies one Adam update to row given its gradient and its first
// and second moment rows m and v, all of equal length:
//
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + (1-beta2)*g*g
//	row -= lr * (m/corr1) / (sqrt(v/corr2) + eps)
//
// row, grad, m and v must not overlap.
func AdamRow(row, grad, m, v []float32, c *AdamStep) {
	if len(row) != len(grad) || len(m) != len(grad) || len(v) != len(grad) {
		panic("tensor: AdamRow length mismatch")
	}
	n := 0
	if useAVX2 && len(grad) >= lanes {
		n = len(grad) &^ (lanes - 1)
		adamRowAVX2(row[:n], grad[:n], m[:n], v[:n], c)
	}
	adamRowGo(row[n:], grad[n:], m[n:], v[n:], c)
}

func adamRowGo(row, grad, m, v []float32, c *AdamStep) {
	for i, g := range grad {
		m[i] = c.Beta1*m[i] + (1-c.Beta1)*g
		v[i] = c.Beta2*v[i] + (1-c.Beta2)*g*g
		mHat := m[i] / c.Corr1
		vHat := v[i] / c.Corr2
		row[i] -= c.LR * mHat / (float32(math.Sqrt(float64(vHat))) + c.Eps)
	}
}

// ComplExGrad adds coef * dScore/dRow of the ComplEx score into gh, gr and
// gt, given the head, relation and tail rows h, r and t. Every slice holds
// a real half followed by an imaginary half of equal length d, so all six
// have length 2d.
//
// The inputs may alias each other (h == t for a self-loop triple) and the
// outputs may alias each other exactly (gh == gt); an input must not
// overlap an output.
func ComplExGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) {
	w := len(h)
	if w%2 != 0 || len(r) != w || len(t) != w || len(gh) != w || len(gr) != w || len(gt) != w {
		panic("tensor: ComplExGrad length mismatch")
	}
	from := 0
	if d := w / 2; useAVX2 && d >= lanes {
		from = d &^ (lanes - 1)
		complExGradAVX2(h, r, t, coef, gh, gr, gt, from)
	}
	complExGradGo(h, r, t, coef, gh, gr, gt, from)
}

// complExGradGo runs the ComplEx gradient loop over the element indices
// from..d-1 of each half.
func complExGradGo(h, r, tt []float32, coef float32, gh, gr, gt []float32, from int) {
	d := len(h) / 2
	hr, hi := h[:d], h[d:]
	rr, ri := r[:d], r[d:]
	tr, ti := tt[:d], tt[d:]
	ghr, ghi := gh[:d], gh[d:]
	grr, gri := gr[:d], gr[d:]
	gtr, gti := gt[:d], gt[d:]
	for i := from; i < d; i++ {
		// d/d Re(h) = Re(r)Re(t) + Im(r)Im(t)
		ghr[i] += coef * (rr[i]*tr[i] + ri[i]*ti[i])
		// d/d Im(h) = Re(r)Im(t) - Im(r)Re(t)
		ghi[i] += coef * (rr[i]*ti[i] - ri[i]*tr[i])
		// d/d Re(r) = Re(h)Re(t) + Im(h)Im(t)
		grr[i] += coef * (hr[i]*tr[i] + hi[i]*ti[i])
		// d/d Im(r) = Re(h)Im(t) - Im(h)Re(t)
		gri[i] += coef * (hr[i]*ti[i] - hi[i]*tr[i])
		// d/d Re(t) = Re(h)Re(r) - Im(h)Im(r)
		gtr[i] += coef * (hr[i]*rr[i] - hi[i]*ri[i])
		// d/d Im(t) = Im(h)Re(r) + Re(h)Im(r)
		gti[i] += coef * (hi[i]*rr[i] + hr[i]*ri[i])
	}
}
