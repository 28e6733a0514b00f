package interp

import (
	"math"
	"math/rand"
	"testing"
)

// TestReciprocalMatchesGoDivision holds the register tier's by-constant
// IDIV/IMOD forms to Go's truncated / and %: for every divisor class the
// magic-number derivation treats differently — ±1, powers of two, small
// odd divisors, the largest and smallest int64 — and for random divisors,
// every dividend in a set that includes both int64 extremes must give the
// quotient and remainder Go gives.
func TestReciprocalMatchesGoDivision(t *testing.T) {
	divisors := []int64{1, -1, 3, -3, 7, -7, 1024, 16777213,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1<<62 + 1, -(1<<62 + 1)}
	for k := 1; k < 63; k++ {
		divisors = append(divisors, int64(1)<<k, -(int64(1) << k))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := rng.Int63() >> uint(rng.Intn(63))
		if d == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		divisors = append(divisors, d)
	}

	dividends := []int64{0, 1, -1, 2, -2, 3, -3, 6, -6, 7, -7, 1023, 1024, -1024, 1025,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		1 << 62, -(1 << 62), 16777212, 16777213, 16777214, -16777213}
	for i := 0; i < 300; i++ {
		n := rng.Int63() >> uint(rng.Intn(63))
		if rng.Intn(2) == 0 {
			n = -n
		}
		dividends = append(dividends, n)
	}

	for _, d := range divisors {
		k := newRdiv(d)
		// Near multiples of d, where truncation and the rounding fix
		// matter most.
		ns := dividends
		for _, m := range []int64{1, 2, 3, -1, -2, 1000} {
			for _, off := range []int64{-1, 0, 1} {
				ns = append(ns, m*d+off)
			}
		}
		for _, n := range ns {
			if q, want := k.quo(n), n/d; q != want {
				t.Fatalf("%d / %d: reciprocal gives %d, Go gives %d (%+v)", n, d, q, want, k)
			}
			if r, want := k.rem(n), n%d; r != want {
				t.Fatalf("%d %% %d: reciprocal gives %d, Go gives %d (%+v)", n, d, r, want, k)
			}
		}
	}
}
