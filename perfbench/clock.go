package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Every time the benchmark reports end to end is taken on the process's
// CPU clock, not the wall clock. On a virtual machine whose host
// time-shares the physical CPUs, wall time also counts the time the
// hypervisor ran someone else on our virtual CPU ("steal"): the same
// table1-ev8 run's wall time moved by up to 2x within an hour while its
// CPU time moved by a few percent, and a serve-mixed round of one seed
// took 43% more wall time in a run with 1.6 s of steal than in one with
// almost none, while two runs of it with 2.5 and 2.9 s of steal read the
// same CPU time to 0.1%. On an unshared CPU the two clocks agree to within a few percent for a
// serial workload.
//
// A job's time is the CPU time the whole process used while the job was
// open. For a serial workload that is the job's own CPU time. For
// overlapping jobs (serve-mixed) it also counts the other client's work
// in that interval, so it reads up to twice the wall latency; it does
// not count time in which no thread of the process ran. The wall-clock
// figures are kept as per-layer metrics (sim.parallelism,
// serve.job_wall_ms_p50/p90), which have no bound.

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// readCPU returns the CPU time every thread of the process has used.
// The kernel does not count stolen time as ours.
func readCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// processCPU is readCPU for the timing code; run checks once, before
// any workload starts, that the clock can be read.
func processCPU() time.Duration {
	d, err := readCPU()
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	return d
}

// stopwatch takes a round's wall and CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

// stop fills r's wall and CPU times.
func (w stopwatch) stop(r *round) {
	r.wall, r.cpu = time.Since(w.wall), processCPU()-w.cpu
}
