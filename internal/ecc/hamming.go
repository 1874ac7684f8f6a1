// Package ecc implements the error-correcting codes the paper evaluates
// against ColumnDisturb (§5.6): single-error-correcting Hamming codes —
// including the (7,4) code and the (136,128) on-die ECC shape used by DDR5
// devices — plus the miscorrection analysis showing that a SEC code handed
// a double error usually *adds* a third bitflip (Obs 27). Fig 21's
// "beyond SECDED" count is a per-chunk flip threshold, not a codec.
//
// The construction is the classic positional Hamming code: codeword bits
// occupy positions 1..N, parity bits sit at the power-of-two positions, and
// the syndrome of a single error equals the error's position. For the
// shortened (136,128) code this reproduces the paper's measured ≈88.5%
// double-error miscorrection rate.
package ecc

import (
	"fmt"

	"columndisturb/internal/sim/rng"
)

// Status classifies a decode outcome from the decoder's perspective (the
// decoder cannot distinguish a genuine correction from a miscorrection;
// that classification needs ground truth and lives in the analysis).
type Status int

// Decode outcomes.
const (
	// StatusClean means the syndrome was zero: no error detected.
	StatusClean Status = iota
	// StatusCorrected means the decoder flipped one position.
	StatusCorrected
	// StatusDetected means the error is detected but not correctable
	// (a syndrome pointing past the shortened codeword).
	StatusDetected
)

func (s Status) String() string {
	switch s {
	case StatusClean:
		return "clean"
	case StatusCorrected:
		return "corrected"
	case StatusDetected:
		return "detected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// SEC is a single-error-correcting Hamming code with K data bits and N
// total bits (positions 1..N; parity at powers of two).
type SEC struct {
	N, K      int
	parityPos []int // power-of-two positions ≤ N
	dataPos   []int // remaining positions, ascending
}

// NewSEC builds the shortest Hamming SEC code carrying dataBits data bits.
// NewSEC(4) is the (7,4) code; NewSEC(128) the (136,128) on-die ECC shape;
// NewSEC(64) the (71,64) core of rank-level (72,64) SECDED.
func NewSEC(dataBits int) (*SEC, error) {
	if dataBits < 1 {
		return nil, fmt.Errorf("ecc: need at least one data bit")
	}
	// Find r with 2^r ≥ dataBits + r + 1.
	r := 2
	for (1<<r)-r-1 < dataBits {
		r++
		if r > 30 {
			return nil, fmt.Errorf("ecc: data width %d too large", dataBits)
		}
	}
	n := dataBits + r
	c := &SEC{N: n, K: dataBits}
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) == 0 {
			c.parityPos = append(c.parityPos, pos)
		} else {
			c.dataPos = append(c.dataPos, pos)
		}
	}
	return c, nil
}

// Encode maps K data bits (one byte per bit, 0 or 1) to an N-bit codeword
// (index i holds position i+1).
func (c *SEC) Encode(data []byte) ([]byte, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("ecc: data length %d, want %d", len(data), c.K)
	}
	cw := make([]byte, c.N)
	for i, pos := range c.dataPos {
		cw[pos-1] = data[i] & 1
	}
	// Each parity bit at position p covers positions with bit p set;
	// setting it to the XOR of covered bits zeroes the syndrome.
	syn := c.syndrome(cw)
	for _, p := range c.parityPos {
		if syn&p != 0 {
			cw[p-1] ^= 1
		}
	}
	return cw, nil
}

func (c *SEC) syndrome(cw []byte) int {
	s := 0
	for i, b := range cw {
		if b&1 == 1 {
			s ^= i + 1
		}
	}
	return s
}

// DecodeResult reports what the decoder did.
type DecodeResult struct {
	Status Status
	// FlippedPos is the 1-based position the decoder flipped
	// (StatusCorrected only).
	FlippedPos int
}

// Decode corrects cw in place according to the syndrome and returns the
// extracted data bits. A syndrome pointing past N (possible in shortened
// codes) is an uncorrectable-but-detected error.
func (c *SEC) Decode(cw []byte) ([]byte, DecodeResult, error) {
	if len(cw) != c.N {
		return nil, DecodeResult{}, fmt.Errorf("ecc: codeword length %d, want %d", len(cw), c.N)
	}
	res := DecodeResult{}
	if s := c.syndrome(cw); s != 0 {
		if s > c.N {
			res.Status = StatusDetected
		} else {
			cw[s-1] ^= 1
			res.Status = StatusCorrected
			res.FlippedPos = s
		}
	}
	data := make([]byte, c.K)
	for i, pos := range c.dataPos {
		data[i] = cw[pos-1] & 1
	}
	return data, res, nil
}

// Overhead returns the storage overhead of a (n,k) code as parity/data —
// e.g. 0.75 for the (7,4) code the paper cites as prohibitively expensive
// (Obs 26).
func Overhead(n, k int) float64 { return float64(n-k) / float64(k) }

// MiscorrectionResult summarizes the Obs 27 experiment.
type MiscorrectionResult struct {
	Trials       int
	Miscorrected int // decoder "corrected", producing wrong data (3rd flip)
	Detected     int // decoder flagged uncorrectable
	LuckyData    int // decoder acted but the data bits happen to be intact
}

// MiscorrectionRate returns the miscorrected fraction.
func (m MiscorrectionResult) MiscorrectionRate() float64 {
	if m.Trials == 0 {
		return 0
	}
	return float64(m.Miscorrected) / float64(m.Trials)
}

// MiscorrectionExperiment reproduces Obs 27: inject exactly two random
// bitflips into random codewords of the SEC code and classify the decoder's
// behaviour against ground truth. For the (136,128) code ≈88.5% of
// double-error codewords are miscorrected into *three*-error codewords.
func MiscorrectionExperiment(c *SEC, trials int, r *rng.Rand) MiscorrectionResult {
	res := MiscorrectionResult{Trials: trials}
	data := make([]byte, c.K)
	for t := 0; t < trials; t++ {
		for i := range data {
			data[i] = byte(r.Uint64() & 1)
		}
		cw, err := c.Encode(data)
		if err != nil {
			panic(err)
		}
		i := r.Intn(c.N)
		j := r.Intn(c.N - 1)
		if j >= i {
			j++
		}
		cw[i] ^= 1
		cw[j] ^= 1
		got, dres, err := c.Decode(cw)
		if err != nil {
			panic(err)
		}
		switch dres.Status {
		case StatusDetected:
			res.Detected++
		case StatusCorrected:
			if bytesEqual(got, data) {
				res.LuckyData++
			} else {
				res.Miscorrected++
			}
		case StatusClean:
			// Impossible for a distance-3 code with 2 errors; count as
			// miscorrection if it ever happened.
			res.Miscorrected++
		}
	}
	return res
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i]&1 != b[i]&1 {
			return false
		}
	}
	return true
}
