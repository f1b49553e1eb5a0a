package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method, the one Python's statistics.quantiles(vs, n=4) uses,
// so a spread computed here equals the one a reader recomputes from the
// per-rep values in the result file. Fewer than two values have no spread:
// all three are the value itself (0 for none).
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// spread is the interquartile range as a share of the median; 0 when the
// median is 0.
func spread(vs []float64) float64 {
	q1, m, q3 := quartiles(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// exactHist is an exact histogram of virtual-time latencies: one counter per
// nanosecond up to its length, and the rare longer value kept as is. The
// always-on LogHist the program uses has ~12% bucket error, which would hide
// a one-bucket shift; the benchmark's own samples must not.
type exactHist struct {
	bins  []uint32
	over  []int64
	count uint64
	sum   uint64
}

func newExactHist(maxNs int) *exactHist { return &exactHist{bins: make([]uint32, maxNs)} }

func (h *exactHist) add(ns int64) {
	h.count++
	h.sum += uint64(ns)
	if ns >= 0 && ns < int64(len(h.bins)) {
		h.bins[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// quantile returns the smallest recorded value v such that at least
// ceil(q*count) samples are <= v.
func (h *exactHist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for ns, c := range h.bins {
		seen += uint64(c)
		if seen >= rank {
			return int64(ns)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[rank-seen-1]
}
