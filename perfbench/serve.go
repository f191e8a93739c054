package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/frontend"
	"ev8pred/internal/report"
	"ev8pred/internal/rng"
	"ev8pred/internal/serve"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// serve-mixed: the daemon. A round starts a fresh in-process ev8serve
// (serve.New over a fresh cache.Store, behind a loopback listener), then
// a closed loop of two clients, one tenant each, submits the round's
// seeded job list: every client sends its next job only after reading
// the previous job's NDJSON stream to its result event. The round ends
// when the list is done; the server is drained and its store deleted.

const (
	serveClients      = 2
	serveWorkers      = 1 // per job; with two running jobs, two simulating goroutines
	serveInstructions = 100_000
	serveQuickInstr   = 10_000
	serveJobs         = 200 // per round
	serveQuickJobs    = 12
	serveHotSpecs     = 4
	serveBand         = 24 // history lengths per grid group: 12 disjoint pairs
	// Shares of the mix in percent; the rest is uncacheable. They are a
	// constructed assumption, not a record of ev8serve traffic: chosen so
	// that about 70% of cacheable cells hit, as a probe of a hand-made
	// mix measured, the median job is a cache read and the 90th
	// percentile is a simulation.
	serveRepeatPct = 60
	serveFreshPct  = 25
)

// jobKind is a job's role in the mix.
type jobKind int

const (
	kindRepeat      jobKind = iota // a spec from the small hot set: cache reads after its first run
	kindFresh                      // a 2bcg/gshare grid seen once per round: misses plus puts
	kindUncacheable                // perceptron/history: no cache key, always simulated
)

var kindNames = [...]string{"repeat", "fresh", "uncacheable"}

// mixJob is one submission of the spec mix.
type mixJob struct {
	kind jobKind
	spec serve.Spec
	body []byte // the spec as submitted, also the key of its expected result
}

// specMix draws one round's job list from seed. The mix is stratified so
// that every seed loads the server alike and only the details move:
// serveRepeatPct% repeats of serveHotSpecs hot grids, serveFreshPct%
// fresh grids and the rest perceptron specs. Repeats are the fastest
// jobs and fill the lower part of the latency distribution, so they
// decide job_p50_ms; fresh and uncacheable jobs simulate and decide
// job_p90_ms. Grids cycle through eight groups — 2bcg/history and
// gshare/history, each on the four benchmark pairs (i, i+4) — and each
// group deals disjoint value pairs from a seeded permutation of its band
// of history lengths, so no two grids share a cell and a fresh grid
// misses on every cell. The seed draws the permutations, the perceptron
// history lengths and the order.
func specMix(seed uint64, jobs int, instr int64) []mixJob {
	r := rng.New(seed, 0x5e47e)
	names := workload.Names()
	pair := func(i int) []string { return []string{names[i%4], names[i%4+4]} }
	type group struct {
		scheme string
		lo     int
		perm   []int
	}
	groups := make([]group, 8)
	for k := range groups {
		g := group{scheme: "2bcg", lo: 12, perm: make([]int, serveBand)}
		if k%2 == 1 {
			g.scheme, g.lo = "gshare", 6
		}
		r.Perm(g.perm)
		groups[k] = g
	}
	grid := func(i int) serve.Spec {
		g := &groups[i%8]
		if len(g.perm) < 2 {
			panic("perfbench: spec mix ran out of history lengths; widen serveBand")
		}
		a, b := g.lo+g.perm[0], g.lo+g.perm[1]
		g.perm = g.perm[2:]
		return serve.Spec{Scheme: g.scheme, Param: "history", Values: []int{min(a, b), max(a, b)},
			Benchmarks: pair(i % 8 / 2), Instructions: instr}
	}
	var out []mixJob
	add := func(k jobKind, sp serve.Spec) {
		body, _ := json.Marshal(sp)
		out = append(out, mixJob{kind: k, spec: sp, body: body})
	}
	hot := make([]serve.Spec, serveHotSpecs)
	for i := range hot {
		hot[i] = grid(i)
	}
	nRepeat, nFresh := jobs*serveRepeatPct/100, jobs*serveFreshPct/100
	for i := 0; i < nRepeat; i++ {
		add(kindRepeat, hot[i%len(hot)])
	}
	for i := 0; i < nFresh; i++ {
		add(kindFresh, grid(serveHotSpecs+i))
	}
	for i := 0; len(out) < jobs; i++ {
		add(kindUncacheable, serve.Spec{Scheme: "perceptron", Param: "history",
			Values: []int{12 + r.Intn(16)}, Benchmarks: pair(i), Instructions: instr})
	}
	perm := make([]int, len(out))
	r.Perm(perm)
	shuffled := make([]mixJob, len(out))
	for i, j := range perm {
		shuffled[i] = out[j]
	}
	return shuffled
}

// resolve maps a spec to the factory and profiles it names, through the
// same rosters the server compiles specs with.
func resolve(sp serve.Spec) (sweep.Factory, []workload.Profile, error) {
	factory, err := sweep.FamilyFactory(sp.Scheme, sp.Param)
	if err != nil {
		return nil, nil, err
	}
	var profs []workload.Profile
	for _, n := range sp.Benchmarks {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, nil, err
		}
		profs = append(profs, p)
	}
	return factory, profs, nil
}

// directRuns computes the expected runs array of every distinct spec in
// the mix straight through sweep.RunPool, with no server and no cache,
// keyed by the submitted body.
func directRuns(jobs []mixJob) (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, j := range jobs {
		if _, ok := want[string(j.body)]; ok {
			continue
		}
		factory, profs, err := resolve(j.spec)
		if err != nil {
			return nil, err
		}
		pts, err := sweep.RunPool(factory, j.spec.Values, profs, j.spec.Instructions,
			sim.Options{Mode: frontend.ModeGhist()}, sim.PoolOptions{Workers: serveClients})
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", j.body, err)
		}
		var runs []report.Run
		for _, p := range pts {
			runs = append(runs, report.FromResults(p.Results)...)
		}
		b, err := json.Marshal(runs)
		if err != nil {
			return nil, err
		}
		want[string(j.body)] = b
	}
	return want, nil
}

// jobResult is what one client saw of one job.
type jobResult struct {
	err                   error
	start, accepted       time.Time
	cpuStart, cpuEnd      time.Duration // process CPU clock at submission and at the result
	firstCell, lastCell   time.Time
	result                time.Time
	runs                  []byte
	bytes                 int
	refusals              int
	branches, instr, misp int64
	cellsDelivered        int
}

// event is the part of a serve.Event the client reads.
type event struct {
	Event        string          `json:"event"`
	Branches     int64           `json:"branches"`
	Mispredicts  int64           `json:"mispredicts"`
	Instructions int64           `json:"instructions"`
	Runs         json.RawMessage `json:"runs"`
	Error        *serve.APIError `json:"error"`
}

// submit posts one job and reads its stream to the terminal event,
// retrying refusals (429/503) after a short pause.
func submit(ctx context.Context, hc *http.Client, url, tenant string, j mixJob) jobResult {
	res := jobResult{start: time.Now(), cpuStart: processCPU()}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(j.body))
		if err != nil {
			res.err = err
			return res
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := hc.Do(req)
		if err != nil {
			res.err = err
			return res
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			res.refusals++
			time.Sleep(time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			res.err = fmt.Errorf("status %s", resp.Status)
			return res
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			now := time.Now()
			res.bytes += len(sc.Bytes()) + 1
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				res.err = err
				return res
			}
			switch ev.Event {
			case "accepted":
				res.accepted = now
			case "cell":
				if res.cellsDelivered == 0 {
					res.firstCell = now
				}
				res.lastCell = now
				res.cellsDelivered++
				res.branches += ev.Branches
				res.instr += ev.Instructions
				res.misp += ev.Mispredicts
			case "result":
				res.result, res.cpuEnd = now, processCPU()
				res.runs = append([]byte(nil), ev.Runs...)
				// Read the stream's end so the connection goes back to
				// the client's pool instead of lingering half-read.
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					res.err = err
				}
				return res
			case "error":
				res.err = errors.New("job failed")
				if ev.Error != nil {
					res.err = fmt.Errorf("job failed: %s: %s", ev.Error.Code, ev.Error.Message)
				}
				return res
			}
		}
		res.err = errors.Join(errors.New("stream ended without a result"), sc.Err())
		return res
	}
}

// serveEnv is one round's server.
type serveEnv struct {
	store *cache.Store
	srv   *serve.Server
	hs    *http.Server
	url   string
	done  chan error
	// base is the store's (hits, misses, read errors, puts) after set-up.
	base [4]int64
}

// warmupJob is the one-cell job every round's set-up runs once the
// server answers its readiness probe. Its family, gshare/size, is one
// the mix never uses, so it shares no cache entry with the mix.
func warmupJob(instr int64) mixJob {
	sp := serve.Spec{Scheme: "gshare", Param: "size", Values: []int{10}, Benchmarks: []string{"gcc"}, Instructions: instr}
	body, _ := json.Marshal(sp)
	return mixJob{kind: kindFresh, spec: sp, body: body}
}

// startServer is a round's set-up: a fresh store in dir, the server and
// its loopback listener, then, through hc, a readiness probe (GET
// /healthz) and the warm-up job, as an operator brings a daemon up.
func startServer(dir string, hc *http.Client, instr int64) (*serveEnv, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: serveWorkers, MaxJobs: serveClients, Cache: store, MetricsPrefix: "perfbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{store: store, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/jobs", done: make(chan error, 1)}
	go func() { e.done <- e.hs.Serve(ln) }()
	resp, err := hc.Get("http://" + ln.Addr().String() + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readiness probe: %s", resp.Status)
		}
	}
	if err == nil {
		err = submit(context.Background(), hc, e.url, "warmup", warmupJob(instr)).err
	}
	if err != nil {
		return nil, errors.Join(err, e.stop())
	}
	e.base[0], e.base[1], e.base[2], e.base[3] = store.Counts()
	return e, nil
}

// counts returns the store's counters since set-up ended.
func (e *serveEnv) counts() [4]int64 {
	var c [4]int64
	c[0], c[1], c[2], c[3] = e.store.Counts()
	for i := range c {
		c[i] -= e.base[i]
	}
	return c
}

// stop drains the server, shuts the listener down and waits for the
// serving goroutine to return.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	if serr := e.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serveRound runs the job list once against a fresh server: the closed
// loop of serveClients clients pulls jobs in list order. Before stopping
// the server it hands the live env to inspect, if non-nil. It returns
// the round, each job's result and the round's set-up time.
func serveRound(jobs []mixJob, dir string, instr int64, inspect func(*serveEnv) error) (round, []jobResult, time.Duration, error) {
	var r round
	defer os.RemoveAll(dir)
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}
	t0 := processCPU()
	env, err := startServer(dir, hc, instr)
	if err != nil {
		return r, nil, 0, err
	}
	setup := processCPU() - t0

	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	sw := startWatch()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				results[i] = submit(context.Background(), hc, env.url, tenant, jobs[i])
			}
		}(fmt.Sprintf("tenant-%d", c))
	}
	wg.Wait()
	sw.stop(&r)
	// With the clients' connections closed, Shutdown has none to wait for.
	tp.CloseIdleConnections()
	if inspect != nil {
		err = inspect(env)
	}
	if serr := env.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return r, nil, 0, err
	}
	for _, res := range results {
		if res.err != nil {
			continue // counted as failed by the check
		}
		r.jobs = append(r.jobs, res.cpuEnd-res.cpuStart)
		r.branches += res.branches
		r.instructions += res.instr
		r.mispredicts += res.misp
	}
	return r, results, setup, nil
}

func runServeMixed(cfg runConfig) (summary, metrics, error) {
	instr, njobs := int64(serveInstructions), serveJobs
	if cfg.quick {
		instr, njobs = serveQuickInstr, serveQuickJobs
	}
	s := summary{}
	jobs := specMix(cfg.seed, njobs, instr)
	want, err := directRuns(jobs)
	if err != nil {
		return s, nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return s, nil, err
	}
	base, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return s, nil, err
	}
	defer os.RemoveAll(base)
	n := 0

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	var got [][]jobResult
	rounds, err := timeRounds(window, 3, func() (round, error) {
		n++
		r, results, setup, err := serveRound(jobs, filepath.Join(base, fmt.Sprint(n)), instr, nil)
		s.setup = append(s.setup, setup)
		got = append(got, results)
		return r, err
	})
	if err != nil {
		return s, nil, err
	}
	s.rounds, s.peakRSSMB = rounds, peakRSSMB()
	for _, results := range got {
		s.checkJobs(jobs, results, want)
	}
	if !cfg.trace {
		return s, nil, nil
	}

	tr := newTracer()
	var traced []round
	var tracedResults [][]jobResult
	var counts [4]int64
	var getUS, putUS float64
	var spent time.Duration
	for len(traced) < 1 || spent < cfg.seconds-window {
		n++
		inspect := func(env *serveEnv) error {
			counts = env.counts()
			var err error
			getUS, putUS, err = timeStore(env.store, jobs, filepath.Join(base, "putstore"))
			return err
		}
		r, results, _, err := serveRound(jobs, filepath.Join(base, fmt.Sprint(n)), instr, inspect)
		if err != nil {
			return s, nil, err
		}
		s.checkJobs(jobs, results, want)
		traceJobs(tr, results, n*len(jobs))
		traced = append(traced, r)
		tracedResults = append(tracedResults, results)
		spent += r.wall
	}
	m := serveLayers(jobs, tracedResults)
	hits, misses, readErrs, puts := counts[0], counts[1], counts[2], counts[3]
	m.set("cache.hits", "count", float64(hits))
	m.set("cache.misses", "count", float64(misses))
	m.set("cache.read_errors", "count", float64(readErrs))
	m.set("cache.puts", "count", float64(puts))
	if hits+misses > 0 {
		m.set("cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	m.set("cache.get_us", "us", getUS)
	m.set("cache.put_us", "us", putUS)
	var cells int
	for _, res := range tracedResults[0] {
		cells += res.cellsDelivered
	}
	m.set("sim.cells", "count", float64(cells))
	m.set("sim.cell_branches", "count", float64(traced[0].branches))
	m.set("sim.ns_per_cell_branch", "ns", 1e9*median(cpusOf(traced))/float64(traced[0].branches))
	m.set("trace.overhead_frac", "ratio", median(cpusOf(traced))/median(cpusOf(s.rounds))-1)
	if err := probeGenerators(workload.Benchmarks(), instr, m); err != nil {
		return s, nil, err
	}
	m.set("sim.cell_branches_per_record", "ratio", float64(traced[0].branches)/m["workload.records"].Value)
	return s, m, tr.write(spanPath(cfg, "serve-mixed"))
}

// checkJobs counts a round's jobs: a job fails if it errored or if its
// runs differ from the direct sweep.RunPool result for its spec. Every
// repeat of a spec is compared with the same direct result, so a cache
// hit that differs from its miss fails too.
func (s *summary) checkJobs(jobs []mixJob, results []jobResult, want map[string][]byte) {
	for i, res := range results {
		s.attempted++
		if res.err != nil || !bytes.Equal(res.runs, want[string(jobs[i].body)]) {
			s.failed++
		}
	}
}

// traceJobs records each job's spans after the fact, from the client
// timestamps: the job, and under it the wait for admission, the cell
// stream and the tail from the last cell to the result. Job i of the
// round gets request id reqBase+i.
func traceJobs(tr *tracer, results []jobResult, reqBase int) {
	for i, res := range results {
		if res.err != nil {
			continue
		}
		req := reqBase + i
		job := tr.add("serve.job", -1, req, res.start, res.result)
		tr.add("serve.accept", job, req, res.start, res.accepted)
		if res.cellsDelivered > 0 {
			tr.add("serve.cells", job, req, res.accepted, res.lastCell)
			tr.add("serve.result", job, req, res.lastCell, res.result)
		}
	}
}

// serveLayers derives the serve.* metrics from the traced rounds.
func serveLayers(jobs []mixJob, rounds [][]jobResult) metrics {
	var accept, first, tail, wall []float64
	byKind := make([][]float64, len(kindNames))
	var refusals, bytesRead, repeats, n int
	for _, results := range rounds {
		for i, res := range results {
			if res.err != nil {
				continue
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			accept = append(accept, ms(res.accepted.Sub(res.start)))
			if res.cellsDelivered > 0 {
				first = append(first, ms(res.firstCell.Sub(res.accepted)))
				tail = append(tail, ms(res.result.Sub(res.lastCell)))
			}
			k := jobs[i].kind
			wall = append(wall, ms(res.result.Sub(res.start)))
			byKind[k] = append(byKind[k], wall[len(wall)-1])
			refusals += res.refusals
			bytesRead += res.bytes
			n++
			if k == kindRepeat {
				repeats++
			}
		}
	}
	m := metrics{}
	m.set("serve.accept_ms_p50", "ms", median(accept))
	m.set("serve.first_cell_ms_p50", "ms", median(first))
	m.set("serve.result_tail_ms_p50", "ms", median(tail))
	for k, name := range kindNames {
		m.set("serve."+name+"_job_ms_p50", "ms", median(byKind[k]))
	}
	p50, _ := percentile(wall, 50)
	p90, _ := percentile(wall, 90)
	m.set("serve.job_wall_ms_p50", "ms", p50)
	m.set("serve.job_wall_ms_p90", "ms", p90)
	m.set("serve.refusals", "count", float64(refusals))
	if n > 0 {
		m.set("serve.ndjson_bytes_per_job", "bytes", float64(bytesRead)/float64(n))
		m.set("serve.repeat_share", "ratio", float64(repeats)/float64(n))
	}
	return m
}

// cellKeys returns the cache keys of a spec's cells, as the server
// derives them; none for an uncacheable spec.
func cellKeys(sp serve.Spec) ([]cache.Key, error) {
	factory, profs, err := resolve(sp)
	if err != nil {
		return nil, err
	}
	var keys []cache.Key
	for _, c := range sweep.Cells(factory, sp.Values, profs, sim.Options{Mode: frontend.ModeGhist()}) {
		k, ok, err := sim.CellKey(c, sp.Instructions)
		if err != nil {
			return nil, err
		}
		if ok {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// timeStore times Store.Get over every cache key of the mix's cacheable
// specs in the round's store (all present by now), and Store.Put of the
// same entries into a fresh store at dir, in microseconds per call.
func timeStore(store *cache.Store, jobs []mixJob, dir string) (getUS, putUS float64, err error) {
	seen := map[string]bool{}
	var keys []cache.Key
	for _, j := range jobs {
		if j.kind == kindUncacheable || seen[string(j.body)] {
			continue
		}
		seen[string(j.body)] = true
		ks, err := cellKeys(j.spec)
		if err != nil {
			return 0, 0, err
		}
		keys = append(keys, ks...)
	}
	if len(keys) == 0 {
		return 0, 0, nil
	}
	entries := make([]*cache.Entry, 0, len(keys))
	t0 := time.Now()
	for _, k := range keys {
		e, ok, err := store.Get(k)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("cache entry for a finished job missing: %v", err)
		}
		entries = append(entries, e)
	}
	getUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(keys))
	dst, err := cache.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	t1 := time.Now()
	for _, e := range entries {
		if err := dst.Put(e); err != nil {
			return 0, 0, err
		}
	}
	putUS = float64(time.Since(t1)) / float64(time.Microsecond) / float64(len(entries))
	return getUS, putUS, nil
}
