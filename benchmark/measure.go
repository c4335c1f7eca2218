package main

import (
	goruntime "runtime"
	"syscall"
	"time"
)

// usage is the process-wide resource reading taken at segment boundaries.
// CPU is user+sys of the whole process, so GC work, spinning thieves and the
// harness's own checking are all in it; the allocation counters likewise
// include the harness (its per-operation allocations are fixed, so a change
// in the program under test still shows one for one).
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// cpuNow is the process CPU clock alone, for probes that bracket many calls
// and must not pay ReadMemStats's stop-the-world.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// budget ends a segment: after Ops operations when Ops > 0 (smoke runs and
// tests), otherwise once Dur of wall time has passed.
type budget struct {
	Ops int
	Dur time.Duration
}

func (b budget) done(ops int, elapsed time.Duration) bool {
	if b.Ops > 0 {
		return ops >= b.Ops
	}
	return elapsed >= b.Dur
}

// segment is one measured stretch of a workload. Every end-to-end metric is
// a statistic of one segment; a run reports the median over its segments.
type segment struct {
	wall      time.Duration
	latMS     []float64 // latency of every correct operation
	lateMS    []float64 // open loop: how late each request left the generator
	attempted int
	failed    int // wrong output, error, non-2xx, or Allocated != Freed
	sloOK     int // correct and within the workload's latency limit
	firstErr  error
	use       usage
}

// record files one finished operation.
func (s *segment) record(lat time.Duration, err error, limit time.Duration) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.latMS = append(s.latMS, ms(lat))
	if lat <= limit {
		s.sloOK++
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perSegment maps each per-segment end-to-end metric to its value for s.
// setup_s is per run, not per segment, and is added by the caller.
func (s *segment) perSegment() map[string]float64 {
	n := float64(s.attempted)
	return map[string]float64{
		"ops_per_s":       ratio(float64(len(s.latMS)), s.wall.Seconds()),
		"op_ms_p50":       percentile(s.latMS, 0.50),
		"op_ms_p95":       percentile(s.latMS, 0.95),
		"cpu_ms_per_op":   ratio(ms(s.use.cpu), n),
		"allocs_per_op":   ratio(float64(s.use.mallocs), n),
		"alloc_kb_per_op": ratio(float64(s.use.bytes)/1024, n),
		"slo_ok_share":    ratio(float64(s.sloOK), n),
	}
}

// measure brackets body with a GC, the wall clock and the resource counters.
func measure(body func(s *segment)) segment {
	s := segment{latMS: make([]float64, 0, 4096)}
	goruntime.GC()
	u0 := readUsage()
	start := time.Now()
	body(&s)
	s.wall = time.Since(start)
	u1 := readUsage()
	s.use = usage{cpu: u1.cpu - u0.cpu, mallocs: u1.mallocs - u0.mallocs, bytes: u1.bytes - u0.bytes}
	return s
}
