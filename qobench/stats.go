package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMicros converts a duration to float microseconds.
func durMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histDelta rebuilds the histogram of observations made between two
// /v2/stats scrapes from their raw log₂ buckets.
func histDelta(before, after *api.Hist) obs.HistSnapshot {
	if after == nil {
		return obs.HistSnapshot{}
	}
	buckets := append([]uint64(nil), after.Buckets...)
	sum := after.SumNanos
	if before != nil {
		for i := range buckets {
			if i < len(before.Buckets) {
				buckets[i] -= before.Buckets[i]
			}
		}
		sum -= before.SumNanos
	}
	return obs.SnapshotFromParts(sum, buckets)
}

// statsDelta is what the server did between two /v2/stats scrapes.
type statsDelta struct {
	before, after api.StatsResponse
}

func (d statsDelta) route(name string) obs.HistSnapshot {
	return histDelta(d.before.Routes[name].Hist, d.after.Routes[name].Hist)
}

func (d statsDelta) stage(name string) obs.HistSnapshot {
	return histDelta(d.before.Stages[name].Hist, d.after.Stages[name].Hist)
}

func (d statsDelta) wal() (appends, bytes, syncs int64) {
	if d.after.WAL == nil || d.before.WAL == nil {
		return 0, 0, 0
	}
	return d.after.WAL.Appends - d.before.WAL.Appends,
		d.after.WAL.AppendedBytes - d.before.WAL.AppendedBytes,
		d.after.WAL.Syncs - d.before.WAL.Syncs
}

// procSample is the process-level resource counters at one instant.
type procSample struct {
	cpu     time.Duration // user + sys
	mallocs uint64
	gcCPU   float64 // seconds
	allCPU  float64 // seconds
}

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), gcMetrics...)
	metrics.Read(samples)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   samples[0].Value.Float64(),
		allCPU:  samples[1].Value.Float64(),
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
