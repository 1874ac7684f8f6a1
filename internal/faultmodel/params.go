// Package faultmodel implements the parametric device-level fault model
// that substitutes for the paper's real DRAM chips.
//
// The model follows the paper's own empirical analysis (§4.6): every charged
// cell leaks with a rate that has two components,
//
//	λ = λ_base·a_ret(T) + κ·a_cd(T)·F(waveform)
//
// where λ_base is the intrinsic retention leakage (GIDL/junction paths to
// the substrate), κ is the cell's coupling strength to its bitline
// (sub-threshold leakage of the access transistor plus dielectric leakage
// between the capacitor contact and the bitline), and F is the time-average
// of a superlinear function f(ΔV) of the instantaneous voltage difference
// between the stored charge and the bitline. The cell's normalized voltage
// decays as V(t) = V0·exp(-∫λ dt) and the cell flips 1→0 once V < VDD/2,
// i.e. once ∫λ dt ≥ ln 2.
//
// This single law reproduces the paper's observation set: retention
// failures are the special case V_col = VDD/2 (F = f(0.5) ≈ 0.10), pressing
// an all-0 row is the worst case (F ≈ f(1) = 1), an all-1 aggressor is
// *better* than retention (F ≈ 0, Obs 10), the two-aggressor pattern is
// ~2× slower than single-aggressor (half the cycle at ΔV = 1, Obs 21), and
// only cells storing 1 above a low column can flip (Obs 7, 9, 23).
//
// All per-cell parameters are pure deterministic functions of
// (seed, bank, subarray, row, column), so experiments are reproducible and
// the cell-explicit and statistical evaluation tiers agree by construction.
package faultmodel

import (
	"math"

	"columndisturb/internal/sim/rng"
)

// Ln2 is the decay integral at which a charged cell crosses the sense
// threshold VDD/2 and its stored 1 reads as 0.
const Ln2 = math.Ln2

// Params holds every constant of the fault model. Rates are expressed in
// 1/ms at the reference temperature; durations in ns unless suffixed
// otherwise. A Params value is immutable once built; chips from the same
// manufacturer/die revision share one.
type Params struct {
	// Alpha is the exponent of the normalized coupling nonlinearity
	// f(Δ) = (e^{αΔ}−1)/(e^{α}−1). Larger alpha widens the gap between
	// retention (Δ=0.5) and worst-case ColumnDisturb (Δ=1).
	Alpha float64

	// DeadTimeNs models bitline settling after each activation: the first
	// DeadTimeNs of every driven phase contribute no coupling. It
	// differentiates hammering (tAggOn = tRAS) from pressing.
	DeadTimeNs float64

	// VPrecharge is the idle bitline voltage in VDD units (open-bitline
	// precharge level, VDD/2).
	VPrecharge float64

	// Lognormal parameters (ln-space mean and sigma) of the intrinsic
	// retention leak rate λ_base [1/ms] at the reference temperature.
	MuBase, SigmaBase float64

	// Lognormal parameters of the bitline coupling rate κ [1/ms] at the
	// reference temperature, i.e. the leak rate a cell would see if its
	// column were held at ΔV = 1 permanently.
	MuKappa, SigmaKappa float64

	// Variance decomposition of the lognormal z-scores into row-, column-
	// and cell-local components (fractions of total variance; the cell
	// component is the remainder). Row/column correlation produces the
	// weak-row clustering behind blast-radius shapes and the multi-bit
	// 8-byte chunks of Fig 21.
	KappaRowVarFrac, KappaColVarFrac float64
	BaseRowVarFrac                   float64

	// Temperature scaling: multiplicative rate factor per +10 °C for each
	// mechanism, anchored at RefTempC. ColumnDisturb is empirically more
	// temperature-sensitive than retention (Obs 17), so TempSlopeKappa >
	// TempSlopeBase.
	TempSlopeBase  float64
	TempSlopeKappa float64
	RefTempC       float64

	// Variable retention time: in any given trial a cell is in a weak
	// state with probability VRTProb, multiplying its λ_base by VRTFactor.
	// The retention profiler repeats trials and keeps the minimum
	// retention time, exactly like the paper's methodology (§3.2).
	VRTProb   float64
	VRTFactor float64

	// RowHammer/RowPress: per-cell activation-count thresholds are
	// lognormal(MuHC, SigmaHC) in equivalent activations; pressing for
	// tAggOn > PressRefNs multiplies the per-activation damage by
	// (tAggOn/PressRefNs)^PressGamma. Only the ±1 physical neighbours of
	// the aggressor are affected.
	MuHC, SigmaHC float64
	PressGamma    float64
	PressRefNs    float64

	// AntiCellFraction is the fraction of cells that encode data with
	// inverted charge polarity. The tested modules behave as true-cell
	// dominant (retention and ColumnDisturb flips are 1→0 only), so the
	// default is 0, but the mechanism is modelled for completeness.
	AntiCellFraction float64
}

// Default returns a generic mid-range parameter set. Per-module profiles in
// the chip catalog override the lognormal locations via Calibrate.
func Default() Params {
	return Params{
		Alpha:            4.3,
		DeadTimeNs:       10,
		VPrecharge:       0.5,
		MuBase:           -9.87,
		SigmaBase:        0.6,
		MuKappa:          -9.33,
		SigmaKappa:       0.8,
		KappaRowVarFrac:  0.15,
		KappaColVarFrac:  0.10,
		BaseRowVarFrac:   0.10,
		TempSlopeBase:    2.0,
		TempSlopeKappa:   3.0,
		RefTempC:         85,
		VRTProb:          0.01,
		VRTFactor:        2.5,
		MuHC:             19.67, // median ≈ 3.5e8 equivalent activations
		SigmaHC:          2.5,
		PressGamma:       0.8,
		PressRefNs:       36,
		AntiCellFraction: 0,
	}
}

// BaseTempFactor returns the multiplicative factor on λ_base at tempC.
func (p *Params) BaseTempFactor(tempC float64) float64 {
	return math.Pow(p.TempSlopeBase, (tempC-p.RefTempC)/10)
}

// KappaTempFactor returns the multiplicative factor on κ at tempC.
func (p *Params) KappaTempFactor(tempC float64) float64 {
	return math.Pow(p.TempSlopeKappa, (tempC-p.RefTempC)/10)
}

// CalibrationTarget expresses a module's vulnerability anchors in directly
// observable terms; Calibrate converts them into lognormal locations.
type CalibrationTarget struct {
	// TimeToFirstCDms: minimum time to the first ColumnDisturb bitflip
	// across the module under worst-case conditions (all-0 aggressor,
	// pressed, reference temperature). Fig 6 anchors.
	TimeToFirstCDms float64
	// TimeToFirstRETms: minimum retention failure time across the module
	// at the reference temperature.
	TimeToFirstRETms float64
	// PopulationCells: total number of cells over which the minima above
	// were observed (the extreme-value correction depends on it).
	PopulationCells int
}

// Calibrate sets MuKappa and MuBase such that the expected extreme cells of
// a PopulationCells-cell module reproduce the target first-bitflip times.
// SigmaBase/SigmaKappa must already be set.
func (p *Params) Calibrate(t CalibrationTarget) {
	zN := rng.ExpectedMaxNormalZ(t.PopulationCells)
	// Worst-case CD: the extreme-κ cell flips at ln2/κ_max (ρ ≈ 1).
	kappaMax := Ln2 / t.TimeToFirstCDms
	p.MuKappa = math.Log(kappaMax) - p.SigmaKappa*zN

	// Retention: competing contributions from the κ tail (at f(0.5)) and
	// the λ_base tail. Attribute the remainder of the target rate to
	// λ_base, with a floor so every module keeps a genuine retention
	// mechanism even when ColumnDisturb dominates.
	retRate := Ln2 / t.TimeToFirstRETms
	fromKappa := p.Coupling(1-p.VPrecharge) * kappaMax
	baseMax := retRate - fromKappa
	if floor := 0.2 * retRate; baseMax < floor {
		baseMax = floor
	}
	p.MuBase = math.Log(baseMax) - p.SigmaBase*zN
}
