package stats

import "math"

// Geometric returns the 1-based index of the first success in a sequence of
// independent trials with success probability s, i.e. a geometric variate on
// {1, 2, ...}. It panics if s <= 0; s >= 1 returns 1.
func (r *RNG) Geometric(s float64) int {
	if s <= 0 {
		panic("stats: Geometric called with non-positive success probability")
	}
	if s >= 1 {
		return 1
	}
	// Inversion: ceil(ln(1-U)/ln(1-s)) with 1-U ~ U.
	u := 1 - r.Float64() // in (0, 1]
	g := int(math.Ceil(math.Log(u) / math.Log(1-s)))
	if g < 1 {
		g = 1
	}
	return g
}

// MarkedSet returns a membership slice of length population with exactly
// marked true entries chosen uniformly at random. It reproduces the paper's
// Sybil marking step ("select floor(p*N) non-repeated nodes and mark them
// malicious").
func (r *RNG) MarkedSet(population, marked int) []bool {
	if marked < 0 || marked > population {
		panic("stats: MarkedSet requires 0 <= marked <= population")
	}
	set := make([]bool, population)
	for _, idx := range r.SampleWithoutReplacement(population, marked) {
		set[idx] = true
	}
	return set
}
