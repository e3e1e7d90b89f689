package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostStat samples the machine-wide CPU time split from /proc/stat, to
// report how much CPU the hypervisor took from this machine during a window.
type hostStat struct{ total, steal float64 }

func readHostStat() hostStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of CPU time stolen between two samples.
func stealShare(a, b hostStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}
