package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dbcc/internal/engine"
)

// span is one traced interval at a layer boundary the benchmark can see
// from outside the program. Times are nanoseconds since the tracer's
// epoch. Run groups the spans of one repetition; Parent is the ID of the
// span that caused this one, or noSpan.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const noSpan int32 = -1

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, which is how the untraced run measures end-to-end
// metrics without paying for spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	runs  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun returns a fresh identifier for the spans of one repetition.
func (t *tracer) newRun() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, run int32, start, end time.Time) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// begin opens a span whose end is set later by finish, so children can
// name it as their parent while it is still running.
func (t *tracer) begin(name string, parent, run int32, start time.Time) int32 {
	return t.add(name, parent, run, start, start)
}

func (t *tracer) finish(id int32, end time.Time) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far; since(mark) returns a
// copy of the spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfSeconds sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover (overlapping
// children, such as concurrent client operations under one repetition,
// are counted once). Spans must carry the IDs the tracer gave them; a
// parent outside the slice is ignored.
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// addEngineTrace synthesises spans from the engine's own statement trace
// (Cluster.Trace, read after the repetition): one engine.stmt span per
// TraceRecord under parent, and below it the statement's operator tree as
// engine.op.<Operator> spans. OpMetrics carries inclusive durations but no
// start times; operators execute depth-first, children before their
// parent's own work, so children are laid end to end from the parent's
// start. That placement is exact for self times, which is what the layer
// metrics are made of.
func (t *tracer) addEngineTrace(recs []engine.TraceRecord, parent, run int32) {
	if t == nil {
		return
	}
	for _, rec := range recs {
		id := t.add("engine.stmt", parent, run, rec.Start, rec.Start.Add(rec.Elapsed))
		if rec.Root != nil {
			t.addOp(rec.Root, id, run, rec.Start)
		}
	}
}

func (t *tracer) addOp(m *engine.OpMetrics, parent, run int32, start time.Time) {
	id := t.add("engine.op."+m.Op, parent, run, start, start.Add(m.Elapsed))
	at := start
	for _, ch := range m.Children {
		t.addOp(ch, id, run, at)
		at = at.Add(ch.Elapsed)
	}
}
