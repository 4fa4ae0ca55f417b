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

// tracer records spans around the benchmark's calls into the layers. A
// nil *tracer is the untraced state: begin returns noSpan and end
// ignores it, so untraced rounds pay one nil check per call site. Spans
// stay in memory and are written out after the run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // noSpan for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by finish
}

const noSpan int32 = -1

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span named after the layer call it wraps
// ("<package>.<Type>.<Method>") under parent.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover (children of one parent may
// overlap when fleet workers run in parallel, so coverage is the union).
func (t *tracer) finish() {
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, curLo, curHi int64
		open := false
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeSummary totals self time per span name, largest first.
func (t *tracer) selfTimeSummary() []string {
	type agg struct {
		name  string
		n     int
		self  int64
		total int64
	}
	by := map[string]*agg{}
	var sum int64
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			by[s.Name] = a
		}
		a.n++
		a.self += s.Self
		a.total += s.End - s.Start
		sum += s.Self
	}
	list := make([]*agg, 0, len(by))
	for _, a := range by {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	out := []string{fmt.Sprintf("span self time (last traced round, %d spans):", len(t.spans))}
	for _, a := range list {
		out = append(out, fmt.Sprintf("  %-36s n=%-7d self=%10.3f ms (%5.1f%%) total=%10.3f ms",
			a.name, a.n, float64(a.self)/1e6, 100*float64(a.self)/float64(max(sum, 1)), float64(a.total)/1e6))
	}
	return out
}
