package main

import (
	"math"
	"runtime"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs by
// linear interpolation between order statistics. vs is left unsorted.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// rank returns the nearest-rank q-quantile of sorted samples: an order
// statistic, never an interpolation, so simulated latencies stay exact.
func rank[T any](sorted []T, q float64) T {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// heap is the allocation odometer read around every timed section.
type heap struct{ mallocs, bytes uint64 }

func readHeap() heap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap{m.Mallocs, m.TotalAlloc}
}

func (h heap) since(h0 heap) heap { return heap{h.mallocs - h0.mallocs, h.bytes - h0.bytes} }
