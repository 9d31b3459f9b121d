package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (q in [0, 1]).
// xs need not be sorted; it is not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile of tailLevels that has at least
// ten samples beyond it, its label ("p99") and its value. With fewer than
// twenty samples it falls back to the maximum.
func tail(xs []float64) (string, float64) {
	n := float64(len(xs))
	for _, q := range tailLevels {
		if n*(1-q) >= 10 {
			return "p" + strconv.FormatFloat(q*100, 'f', -1, 64), quantile(xs, q)
		}
	}
	return "max", slices.Max(xs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// the Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fs := strings.Fields(rest); len(fs) > 0 {
					if kb, err := strconv.ParseFloat(fs[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
