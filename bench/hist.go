package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-bucket latency histogram over nanosecond
// values. Every octave is split into 64 linear sub-buckets, so a
// bucket is at most 1/64 of its lower bound wide and a reported
// midpoint is within 0.8 % of any value in it. The array never grows:
// recording allocates nothing, which keeps the client's share of
// allocs_per_op constant.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 64-bit values need shifts 0..57 above the exact range.
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	s := bits.Len64(v) - histSubBits - 1
	return (s+1)<<histSubBits + int(v>>uint(s)) - histSub
}

// histBounds returns the lower bound and the width of bucket i.
func histBounds(i int) (low, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	s := uint(i>>histSubBits) - 1
	return float64(uint64(i&(histSub-1)+histSub) << s), float64(uint64(1) << s)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, 0 when
// the histogram is empty. Within the bucket that holds the rank the
// value is interpolated by rank, so it stays inside the bucket (the
// resolution bound holds) without snapping to a fixed grid.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(q*float64(h.n), 1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := histBounds(i)
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method), which is what the acceptance driver applies to
// run-level results; one value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
