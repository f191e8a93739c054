package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/experiments"
	"ev8pred/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99},
	} {
		v, b := percentile(xs, c.p)
		if v != c.v || b != c.beyond {
			t.Errorf("percentile(1..100, %g) = %g with %d beyond, want %g with %d", c.p, v, b, c.v, c.beyond)
		}
	}
	if v, b := percentile(nil, 90); v != 0 || b != 0 {
		t.Errorf("percentile(nil) = %g, %d", v, b)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestTimeRoundsKeepsTenBeyondP90 checks that a run holds enough jobs
// for at least ten to lie beyond the 90th percentile, however few jobs a
// round has and however short the window.
func TestTimeRoundsKeepsTenBeyondP90(t *testing.T) {
	for _, perRound := range []int{1, 13, 64, 200} {
		rs, err := timeRounds(0, 1, func() (round, error) {
			return round{wall: time.Microsecond, jobs: make([]time.Duration, perRound)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var lat []float64
		for i, r := range rs {
			for j := range r.jobs {
				lat = append(lat, float64(i*perRound+j))
			}
		}
		if _, beyond := percentile(lat, 90); beyond < 10 {
			t.Errorf("%d jobs a round: %d rounds, %d jobs, %d beyond p90", perRound, len(rs), len(lat), beyond)
		}
	}
	if _, err := timeRounds(0, 1, func() (round, error) { return round{wall: 1}, nil }); err == nil {
		t.Error("timeRounds accepted rounds that completed no job")
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, l := range layerUnits {
		if !metricName.MatchString(l[0]) {
			t.Errorf("per-layer name %q breaks the charset", l[0])
		}
	}
	for _, bad := range []string{"", "a b", "ns/branch", "é", ".lead", strings.Repeat("x", 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metrics.set accepted %q", bad)
				}
			}()
			metrics{}.set(bad, "s", 1)
		}()
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0}, // overlaps a: [10,40] counted once
		{Name: "c", Start: 50, End: 60, Parent: 0},
		{Name: "d", Start: 90, End: 120, Parent: 0},          // clipped to [90,100]
		{Name: "grandchild", Start: 95, End: 105, Parent: 4}, // d's child only
		{Name: "other", Start: 0, End: 100, Parent: -1},
	}
	if got, want := selfTime(spans, 0), time.Duration(100-30-10-10); got != want {
		t.Errorf("self time of parent = %v, want %v", got, want)
	}
	if got := selfTime(spans, 2); got != 20 {
		t.Errorf("self time of a childless span = %v, want its duration 20", got)
	}
	if got := selfTime(spans, 4); got != 20 {
		t.Errorf("self time of d = %v, want 30-10", got)
	}
}

func TestSeededProfiles(t *testing.T) {
	a := seededProfiles(0, 3)
	if len(a) != 24 {
		t.Fatalf("got %d profiles, want 8 benchmarks x 3 variants", len(a))
	}
	paper := workload.Benchmarks()
	for i, p := range paper {
		if a[3*i] != p {
			t.Errorf("seed 0 variant 0 of %s is not the paper's profile", p.Name)
		}
	}
	if !reflect.DeepEqual(a, seededProfiles(0, 3)) {
		t.Error("same seed gave different profiles")
	}
	seeds := map[uint64]bool{}
	for _, s := range []uint64{0, 1, 2, heldOutSeed} {
		for _, p := range seededProfiles(s, 3) {
			if seeds[p.Seed] {
				t.Errorf("seed %d reuses program seed %#x", s, p.Seed)
			}
			seeds[p.Seed] = true
		}
	}
}

func TestSpecMix(t *testing.T) {
	jobs := specMix(7, 200, 1000)
	if !reflect.DeepEqual(jobs, specMix(7, 200, 1000)) {
		t.Fatal("same seed gave different mixes")
	}
	if reflect.DeepEqual(jobs, specMix(8, 200, 1000)) {
		t.Fatal("another seed gave the same mix")
	}
	var kinds [3]int
	distinct := map[string]jobKind{}
	owner := map[cache.Key]string{} // cache key -> the spec whose cell it is
	warm, err := cellKeys(warmupJob(1000).spec)
	if err != nil || len(warm) != 1 {
		t.Fatalf("warm-up keys %v, %v; want one", warm, err)
	}
	owner[warm[0]] = "warm-up"
	for _, j := range jobs {
		kinds[j.kind]++
		if k, ok := distinct[string(j.body)]; ok && j.kind != kindUncacheable && (k != kindRepeat || j.kind != kindRepeat) {
			t.Errorf("cacheable spec %s appears twice outside the hot set", j.body)
		}
		distinct[string(j.body)] = j.kind
		keys, err := cellKeys(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(j.spec.Values) * len(j.spec.Benchmarks); j.kind != kindUncacheable && len(keys) != want {
			t.Errorf("%s has %d cache keys, want %d", j.body, len(keys), want)
		}
		if j.kind == kindUncacheable && len(keys) != 0 {
			t.Errorf("uncacheable %s has cache keys", j.body)
		}
		for _, k := range keys {
			if o, ok := owner[k]; ok && o != string(j.body) {
				t.Errorf("a cell of %s shares its cache entry with %s", j.body, o)
			}
			owner[k] = string(j.body)
		}
	}
	if kinds != [3]int{120, 50, 30} {
		t.Errorf("kind counts = %v, want 60%%/25%%/15%% of 200", kinds)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the code:
// the same workloads, the same end-to-end metrics and units, the same
// per-layer metrics and units, and the experiment roster.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	e2e := endToEnd(summary{setup: []time.Duration{1}, rounds: []round{{cpu: 1, wall: 1, jobs: []time.Duration{1}, branches: 1, instructions: 1}}})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) not reported with that unit", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, code reports %d", len(b.PerLayer), len(layerUnits))
	}
	for i, m := range b.PerLayer {
		if i < len(layerUnits) && (m.Name != layerUnits[i][0] || m.Unit != layerUnits[i][1]) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, layerUnits[i][0], layerUnits[i][1])
		}
	}
	if !reflect.DeepEqual(experimentIDs, experiments.IDs()) {
		t.Errorf("experimentIDs %v, experiments.IDs() %v", experimentIDs, experiments.IDs())
	}
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, on a
// tiny budget and checks the result line: correct, every metric present,
// every end-to-end metric non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 50 * time.Millisecond, trace: traced, workdir: t.TempDir(), quick: true}
			res, err := measure(workloads[name], cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := len(layerUnits)
			if !traced {
				want = 9
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g", name, n, m.Value)
					}
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "table1-ev8", "--trace", "2"},
		{"--workload", "table1-ev8", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}
