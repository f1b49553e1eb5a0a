package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repStats is one rep: host-time measurements of the set-up and of the timed
// region, how fast the host was running at the time, and the outcome the
// output checks read afterwards.
type repStats struct {
	// SetupS, WallS and CPUS are scaled by HostSpeed: seconds at the
	// reference box's quiet speed (ref.go). Raw times are these divided by
	// HostSpeed.
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	HostSpeed float64 `json:"host_speed"`
	// Mallocs and Bytes are MemStats.Mallocs/TotalAlloc deltas over the
	// timed region.
	Mallocs   uint64 `json:"mallocs"`
	Bytes     uint64 `json:"bytes"`
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNs uint64 `json:"gc_pause_ns"`

	out outcome
}

// runRep builds one rig and runs it once. The heap is collected first so each
// rep starts from the same state and the previous rep's garbage is not charged
// to this one. A non-nil tracer brackets the phases in coarse spans and is
// handed to the builder so it installs the decorators.
func runRep(build func(*tracer) rig, tr *tracer) repStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var wall, cpu time.Duration

	tr.begin("setup")
	t0 := time.Now()
	r := build(tr)
	setup := time.Since(t0)
	tr.end()

	speed := atHostSpeed(func() {
		runtime.ReadMemStats(&m0)
		cpu0 := processCPU()
		tr.begin("run")
		t1 := time.Now()
		r.Run()
		wall = time.Since(t1)
		tr.end()
		cpu = processCPU() - cpu0
		runtime.ReadMemStats(&m1)
	})

	tr.begin("check")
	out := r.Check()
	tr.end()

	return repStats{
		SetupS: setup.Seconds() * speed, WallS: wall.Seconds() * speed, CPUS: cpu.Seconds() * speed,
		HostSpeed: speed,
		Mallocs:   m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles: m1.NumGC - m0.NumGC, GCPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		out: out,
	}
}

// processCPU is the process's user+system CPU time so far. It shows work
// pushed onto GC threads that wall time hides, and is steadier than wall time
// on a shared box.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (VmHWM) less the reference
// loop's own state, 0 where /proc does not say.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb/1024 - refStateMB
		}
	}
	return 0
}
