package rng

import "math"

// Phi returns the standard normal cumulative distribution function at z.
func Phi(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// PhiC returns the complementary standard normal CDF, 1 - Phi(z), computed
// without cancellation in the upper tail.
func PhiC(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// InvPhi returns the inverse of the standard normal CDF using Acklam's
// rational approximation (relative error below 1.2e-9 over (0,1)).
// It panics outside (0, 1); callers should use OpenFloat64 for inputs.
func InvPhi(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic("rng: InvPhi input out of (0,1)")
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// InvPhiC returns the z such that PhiC(z) == q, stable for very small q
// (deep upper tail). It panics outside (0, 1).
func InvPhiC(q float64) float64 {
	if !(q > 0 && q < 1) {
		panic("rng: InvPhiC input out of (0,1)")
	}
	if q >= 0.5 {
		return InvPhi(1 - q)
	}
	// Phi(-z) == PhiC(z), and InvPhi is accurate near 0.
	return -InvPhi(q)
}

// MaxNormalZ samples the maximum of n independent standard normal variates
// exactly via the order-statistic inverse CDF: P(max <= z) = Phi(z)^n.
// For large n it evaluates the tail probability with expm1 to preserve
// precision. n must be >= 1.
func (r *Rand) MaxNormalZ(n int) float64 {
	if n < 1 {
		panic("rng: MaxNormalZ with n < 1")
	}
	u := r.OpenFloat64()
	// q = 1 - u^(1/n), computed without cancellation.
	q := -math.Expm1(math.Log(u) / float64(n))
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q >= 1 {
		q = 1 - 1e-16
	}
	return InvPhiC(q)
}

// ExpectedMaxNormalZ returns an accurate deterministic estimate of
// E[max of n standard normals], using the median-rank approximation
// InvPhi((n-0.375)/(n+0.25)) which is within ~1% for n >= 2. Used by the
// calibration code that converts "minimum observed time to first bitflip
// over a population" into lognormal location parameters.
func ExpectedMaxNormalZ(n int) float64 {
	if n < 1 {
		panic("rng: ExpectedMaxNormalZ with n < 1")
	}
	if n == 1 {
		return 0
	}
	p := (float64(n) - 0.375) / (float64(n) + 0.25)
	return InvPhi(p)
}

// Binomial samples from Binomial(n, p). For small n it uses direct coin
// flips; otherwise it uses inversion for small means and a clamped normal
// approximation with continuity correction for large means. The
// approximation error is far below the sampling noise of the experiments
// this package serves.
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the mean stays small where possible.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	switch {
	case n <= 32:
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	case mean < 30:
		// Inversion by sequential CDF accumulation.
		q := math.Pow(1-p, float64(n))
		u := r.Float64()
		k := 0
		cum := q
		for u > cum && k < n {
			k++
			q *= (float64(n-k+1) / float64(k)) * (p / (1 - p))
			cum += q
		}
		return k
	default:
		sd := math.Sqrt(mean * (1 - p))
		k := int(math.Round(mean + sd*r.Norm()))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
}
