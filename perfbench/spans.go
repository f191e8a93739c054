package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark takes the clock around the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // nanoseconds since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Req    int    `json:"req"`    // id shared by every span of one job
}

// tracer keeps spans in memory for the length of a traced run; write
// puts them out once the run is over. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// setEnd closes a span added with a provisional end.
func (t *tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// childTime sums the durations of span id's children named name.
func (t *tracer) childTime(id int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Parent == id && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTime returns span id's duration minus the part of its interval
// that its child spans cover. Overlapping children (concurrent work
// under one parent) are merged first, so shared time is not subtracted
// twice, and children are clipped to the parent's interval.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTime(t.spans, id)
}

func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curLo, curHi, open = k.lo, k.hi, true
		case k.lo <= curHi:
			curHi = max(curHi, k.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = k.lo, k.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return time.Duration(p.End - p.Start - covered)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.workdir, "spans-"+workload+".jsonl")
}

// write puts every span out as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
