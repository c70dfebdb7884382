package stats

import "math"

// Summary accumulates observations online (Welford's algorithm) and reports
// mean, variance and confidence intervals without retaining samples.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Proportion accumulates Bernoulli outcomes and reports the success rate with
// a Wilson score interval, which behaves well near 0 and 1 where the Monte
// Carlo resilience estimates live.
type Proportion struct {
	successes int
	trials    int
}

// Add records one Bernoulli outcome.
func (p *Proportion) Add(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// AddN records many outcomes at once.
func (p *Proportion) AddN(successes, trials int) {
	p.successes += successes
	p.trials += trials
}

// Trials returns the number of recorded outcomes.
func (p *Proportion) Trials() int { return p.trials }

// Rate returns the observed success proportion, or 0 with no trials.
func (p *Proportion) Rate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Wilson95 returns the 95% Wilson score interval (lo, hi) for the true
// success probability.
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.trials == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(p.trials)
	phat := p.Rate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
