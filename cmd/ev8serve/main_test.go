package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"ev8pred/internal/cliflag"
	"ev8pred/internal/frontend"
	"ev8pred/internal/report"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad addr", []string{"-addr", "localhost"}},
		{"bad addr port", []string{"-addr", "localhost:notaport"}},
		{"negative workers", []string{"-j", "-1"}},
		{"zero max-jobs", []string{"-max-jobs", "0"}},
		{"negative queue", []string{"-queue", "-3"}},
		{"zero tenant-quota", []string{"-tenant-quota", "0"}},
		{"zero max-cells", []string{"-max-cells", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard, make(chan os.Signal), nil)
			var ce *cliflag.Error
			if !errors.As(err, &ce) {
				t.Fatalf("args %v: error %v (%T) is not *cliflag.Error", tc.args, err, err)
			}
		})
	}
}

// event mirrors the serve stream's NDJSON line shape. Runs stays raw so
// the byte-identical comparison below is on the serialized form.
type event struct {
	Event  string          `json:"event"`
	Job    string          `json:"job"`
	Tenant string          `json:"tenant"`
	Index  int             `json:"index"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Runs   json.RawMessage `json:"runs"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// spec mirrors the serve request shape.
type spec struct {
	Scheme       string   `json:"scheme"`
	Param        string   `json:"param"`
	Values       []int    `json:"values"`
	Benchmarks   []string `json:"benchmarks"`
	Instructions int64    `json:"instructions"`
	Mode         string   `json:"mode,omitempty"`
	Stats        bool     `json:"stats,omitempty"`
}

// submit POSTs a spec and returns the response; the caller owns Body.
func submit(t *testing.T, client *http.Client, addr, tenant string, sp spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", "http://"+addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream decodes a whole NDJSON response.
func readStream(t *testing.T, body io.Reader) []event {
	t.Helper()
	var events []event
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Errorf("bad stream line %q: %v", sc.Text(), err)
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
	}
	return events
}

// directRuns computes the spec's result records straight through the
// engine (sim.RunCells via sweep.RunPool), serialized the same way — the
// byte-identical reference for what the server must stream.
func directRuns(t *testing.T, sp spec) json.RawMessage {
	t.Helper()
	factory, err := sweep.FamilyFactory(sp.Scheme, sp.Param)
	if err != nil {
		t.Fatal(err)
	}
	modeName := sp.Mode
	if modeName == "" {
		modeName = "ghist"
	}
	mode, err := frontend.ModeByName(modeName)
	if err != nil {
		t.Fatal(err)
	}
	var profs []workload.Profile
	for _, name := range sp.Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	opts := sim.Options{Mode: mode, Collect: sp.Stats}
	pts, err := sweep.RunPool(factory, sp.Values, profs, sp.Instructions, opts, sim.PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var runs []report.Run
	for _, p := range pts {
		runs = append(runs, report.FromResults(p.Results)...)
	}
	out, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkStream asserts the serving contract on one tenant's stream:
// accepted first, then every cell in input order with done == index+1,
// then a result whose runs are byte-identical to the direct engine run.
func checkStream(t *testing.T, tenant string, events []event, sp spec) {
	t.Helper()
	cells := len(sp.Values) * len(sp.Benchmarks)
	if len(events) != cells+2 {
		t.Fatalf("%s: got %d events, want %d: %+v", tenant, len(events), cells+2, events)
	}
	if e := events[0]; e.Event != "accepted" || e.Tenant != tenant || e.Total != cells {
		t.Errorf("%s: accepted event %+v", tenant, e)
	}
	for i, e := range events[1 : 1+cells] {
		if e.Event != "cell" || e.Index != i || e.Done != i+1 || e.Total != cells {
			t.Errorf("%s: cell event %d out of input order: %+v", tenant, i, e)
		}
	}
	last := events[len(events)-1]
	if last.Event != "result" {
		t.Fatalf("%s: final event %+v", tenant, last)
	}
	want := directRuns(t, sp)
	if !bytes.Equal(last.Runs, want) {
		t.Errorf("%s: served runs are not byte-identical to the direct engine run:\n%s\n---\n%s",
			tenant, last.Runs, want)
	}
}

// TestServeE2E drives the daemon end to end over a real socket: two
// concurrent tenants stream their jobs (progress in input order, results
// byte-identical to direct engine runs, attribution counters included),
// then SIGTERM drains it — the in-flight job completes, a submission
// during the drain is refused with the typed 503, the process loop exits
// nil, and the port is released with no goroutines left behind.
func TestServeE2E(t *testing.T) {
	before := runtime.NumGoroutine()

	sig := make(chan os.Signal, 1)
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-max-jobs", "2", "-cache", t.TempDir(),
		}, io.Discard, io.Discard, sig, func(a net.Addr) { addrCh <- a })
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Phase 1: two tenants, concurrent jobs, different schemes; tenant B
	// collects attribution counters so the byte-identical check covers
	// the -stats payload too.
	specA := spec{Scheme: "gshare", Param: "history", Values: []int{4, 6},
		Benchmarks: []string{"li", "m88ksim"}, Instructions: 200_000}
	specB := spec{Scheme: "2bcg", Param: "history", Values: []int{13},
		Benchmarks: []string{"go"}, Instructions: 200_000, Mode: "ev8", Stats: true}
	var wg sync.WaitGroup
	for _, tc := range []struct {
		tenant string
		sp     spec
	}{{"alice", specA}, {"bob", specB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := submit(t, client, addr, tc.tenant, tc.sp)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", tc.tenant, resp.StatusCode)
				return
			}
			checkStream(t, tc.tenant, readStream(t, resp.Body), tc.sp)
		}()
	}
	wg.Wait()

	// Phase 2: drain. Start a longer job, signal SIGTERM once it is
	// accepted, and verify the drain contract from both sides.
	drainSpec := spec{Scheme: "gshare", Param: "history", Values: []int{4, 6},
		Benchmarks: []string{"li"}, Instructions: 50_000_000}
	resp := submit(t, client, addr, "carol", drainSpec)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no accepted event: %v", sc.Err())
	}
	var accepted event
	if err := json.Unmarshal(sc.Bytes(), &accepted); err != nil || accepted.Event != "accepted" {
		t.Fatalf("first event %q (%v)", sc.Text(), err)
	}
	sig <- syscall.SIGTERM

	// A submission during the drain is refused with the typed 503. The
	// drain cannot finish while carol's stream is open, so the listener
	// is still up; poll briefly in case the signal is still in flight.
	var status int
	var apiCode string
	for i := 0; i < 100; i++ {
		body, _ := json.Marshal(specA)
		req, err := http.NewRequest("POST", "http://"+addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", "dave")
		r, err := client.Do(req)
		if err != nil {
			// The drain already finished and tore the listener down — the
			// in-flight job must have been very fast. Still a rejection,
			// but the typed 503 is the contract we want to see.
			t.Logf("submission during drain: %v", err)
			break
		}
		var out struct {
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		status = r.StatusCode
		if status != http.StatusOK {
			_ = json.NewDecoder(r.Body).Decode(&out)
		} else {
			_, _ = io.Copy(io.Discard, r.Body) // raced ahead of the signal; drain the stream
		}
		r.Body.Close()
		if out.Error != nil {
			apiCode = out.Error.Code
		}
		if status == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != http.StatusServiceUnavailable || apiCode != "draining" {
		t.Errorf("submission during drain: status %d code %q, want 503 %q", status, apiCode, "draining")
	}

	// The in-flight job runs to completion: its stream must end with a
	// result, not a cancellation.
	var final event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.Event != "result" {
		t.Fatalf("drained job's final event: %+v", final)
	}
	if want := directRuns(t, drainSpec); !bytes.Equal(final.Runs, want) {
		t.Error("drained job's runs are not byte-identical to the direct engine run")
	}

	// The serve loop exits cleanly once the drain settles.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM drain")
	}

	// The port is released…
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Errorf("address %s not released after drain: %v", addr, err)
	} else {
		ln.Close()
	}
	// …and no server goroutines linger (poll: connection teardown and the
	// drain-abort watcher exit asynchronously just after run returns).
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHTTPServerTimeouts pins the connection bounds: a client that sends
// half a request header is cut off, idle keep-alive connections close,
// and no read or write deadline can cut a long job's NDJSON stream.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (positive)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (positive)", hs.IdleTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must be 0 so job streams are not cut",
			hs.ReadTimeout, hs.WriteTimeout)
	}
}
