package main

import (
	"sort"
	"strings"
	"time"
)

// passOut is everything one pass of a workload measured. Durations are
// host time; cycle and instruction counts are simulated.
type passOut struct {
	Wall  time.Duration // the whole pass
	Setup time.Duration // build + vet + machine construction and launch (+ normalize, server start)
	TTFR  time.Duration // pass start (sweep: submission) to the first finished cell
	Cells int           // cells finished (sweep: cells of the cold sweep)

	SimCycles uint64 // simulated cycles summed over the pass's cells
	SimInst   uint64 // committed simulated instructions (direct cells)
	RunTime   time.Duration

	CellTimes               []time.Duration
	CellCycles              map[string]uint64 // direct cells by key
	Counters                counters
	Barriers, BarrierCycles uint64 // microbenchmark cells

	// sweep-service only.
	ColdWall, WarmWall   time.Duration
	Normalize            time.Duration
	StreamGapMax         time.Duration
	CacheHits, CacheMiss int64

	Attempted, Failed int
	Failures          []string

	Cal calib // host-speed calibration run around the pass (untraced runs)
}

// counters sums StatsReport counters over cells, keeping maxima for the
// max_* gauges. busy sums the request-side cycles the fabric was occupied
// (one per grant plus the occupancy cycles after it) over the cells whose
// fabric counts occupancy (bus, crossbar, optical; not the mesh), and
// busyWall those cells' wall cycles, so their ratio is a busy fraction.
type counters struct {
	sum            map[string]uint64
	busy, busyWall uint64
}

func newCounters() counters { return counters{sum: make(map[string]uint64)} }

func (c counters) get(name string) uint64 { return c.sum[name] }

func (c *counters) add(snap map[string]uint64) {
	for k, v := range snap {
		if strings.Contains(k, ".max_") {
			if v > c.sum[k] {
				c.sum[k] = v
			}
			continue
		}
		c.sum[k] += v
		if fab, ok := strings.CutSuffix(k, ".request_busy_cycles"); ok {
			c.busy += v + snap[fab+".request_grants"]
			c.busyWall += snap["machine.wall_cycles"]
		}
	}
}

// maxSuffix is the largest counter whose name ends in suffix.
func (c counters) maxSuffix(suffix string) uint64 {
	var m uint64
	for k, v := range c.sum {
		if strings.HasSuffix(k, suffix) && v > m {
			m = v
		}
	}
	return m
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// over maps every pass to one value.
func over(ps []passOut, f func(passOut) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// medianOver is the median of f over the passes.
func medianOver(ps []passOut, f func(passOut) float64) float64 { return median(over(ps, f)) }

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
