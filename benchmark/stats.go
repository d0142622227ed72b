package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile.
func quartiles(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// geomean is the geometric mean of positive values; 0 if any value is
// not positive or the sample is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// digestWords is a short stable digest of a guest output: the first 8
// bytes of the SHA-256 of the little-endian words, in hex.
func digestWords(words []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// stat is one reported number with the spread of the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// statOf summarizes a sample by its median and quartiles.
func statOf(xs []float64, unit string) stat {
	q1, q3 := quartiles(xs)
	return stat{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// aggregateOf reports an aggregate of per-cell medians together with the
// quartiles of the same aggregate taken round by round.
func aggregateOf(value float64, byRound []float64, unit string) stat {
	s := statOf(byRound, unit)
	s.Value = value
	return s
}

// scaled multiplies the value and quartiles (unit conversion).
func (s stat) scaled(f float64, unit string) stat {
	s.Value *= f
	s.Q1 *= f
	s.Q3 *= f
	s.Unit = unit
	return s
}

// rate turns a summary of durations into one of rates, work/duration:
// the slow quartile of the durations is the low quartile of the rates.
func (s stat) rate(work float64, unit string) stat {
	inv := func(d float64) float64 {
		if d == 0 {
			return 0
		}
		return work / d
	}
	s.Value, s.Q1, s.Q3, s.Unit = inv(s.Value), inv(s.Q3), inv(s.Q1), unit
	return s
}

// exact wraps a number that has no sample behind it (a count or a
// ratio of medians).
func exact(v float64, unit string) stat { return stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }
