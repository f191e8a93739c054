package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// metricName is the charset every metric name keeps to: later changes
// cite these names, and the result line is parsed by tools that expect
// them plain.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers by name.
type metrics map[string]metric

// set records one metric, refusing a malformed name or a non-finite
// value: either would be a bug in the benchmark, not in the program.
func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
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

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100) and how many samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps an exact rank exact: 99.9% of 10000 is 9990, not
	// the 9991 that rounding error in the product would make it.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// durs converts durations to float seconds scaled by unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// round is one timed pass over a workload's job list.
type round struct {
	wall         time.Duration
	cpu          time.Duration   // process CPU time
	jobs         []time.Duration // per-job process CPU time, in job order
	branches     int64           // conditional branches delivered
	instructions int64           // instructions delivered
	mispredicts  int64
}

// summary is what every workload hands back: its timed rounds, its
// set-up samples (process CPU time) and its operation counts.
type summary struct {
	setup     []time.Duration
	rounds    []round
	peakRSSMB float64 // taken when the timed window closes, before any check
	attempted int
	failed    int
}

// endToEnd derives the end-to-end metrics every workload reports from
// its rounds, every time on the CPU clock. Each rate is the median over
// rounds; job percentiles pool the jobs of every round. The number of
// jobs beyond job_p90_ms goes to stderr.
func endToEnd(s summary) metrics {
	m := metrics{}
	var times, nsBranch, minstr, jobs []float64
	var total time.Duration
	for _, r := range s.rounds {
		t := r.cpu.Seconds()
		times = append(times, t)
		nsBranch = append(nsBranch, 1e9*t/float64(r.branches))
		minstr = append(minstr, float64(r.instructions)/t/1e6)
		jobs = append(jobs, durs(r.jobs, time.Millisecond)...)
		total += r.cpu
	}
	p50, _ := percentile(jobs, 50)
	p90, beyond := percentile(jobs, 90)
	first := s.rounds[0]
	m.set("setup_s", "s", median(durs(s.setup, time.Second)))
	m.set("round_s", "s", median(times))
	m.set("ns_per_branch", "ns", median(nsBranch))
	m.set("sim_minstr_per_s", "Minstr/s", median(minstr))
	m.set("job_p50_ms", "ms", p50)
	m.set("job_p90_ms", "ms", p90)
	m.set("jobs_per_s", "1/s", float64(len(jobs))/total.Seconds())
	m.set("peak_rss_mb", "MiB", s.peakRSSMB)
	m.set("misp_ki", "misp/KI", 1000*float64(first.mispredicts)/float64(first.instructions))
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d jobs; %d jobs beyond p90\n",
		len(s.rounds), len(jobs), beyond)
	return m
}

// parallelism is the median over rounds of process CPU time per wall
// second: how many CPUs a round kept busy.
func parallelism(rs []round) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.cpu.Seconds() / r.wall.Seconds()
	}
	return median(xs)
}
