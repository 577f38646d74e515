package nn

import "math"

// Adam is the Adam optimiser with decoupled weight decay and gradient
// clipping, the training configuration the paper's cost models use.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	ClipNorm    float64 // 0 disables clipping

	params []*Tensor
	m, v   [][]float64
	step   int
}

// NewAdam builds an optimiser over the parameters with defaults
// (lr, β1=0.9, β2=0.999, eps=1e-8).
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		params: params,
	}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// ZeroGrad clears accumulated gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradNorm returns the global L2 norm of all gradients.
func (a *Adam) GradNorm() float64 {
	var sq float64
	for _, p := range a.params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// Step applies one update.
func (a *Adam) Step() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / n
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i := range p.Data {
			g := p.Grad[i]*scale + a.WeightDecay*p.Data[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.Data[i] -= a.LR * (m[i] / b1c) / (math.Sqrt(v[i]/b2c) + a.Eps)
		}
	}
}
