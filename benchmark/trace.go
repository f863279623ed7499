package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Times are
// nanoseconds since the recorder started.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root
	Layer  string             `json:"name"`
	Op     string             `json:"op"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so one replay function serves the traced and the
// untraced side of the trace-overhead comparison.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

const noSpan = -1

func (r *recorder) start(parent int, layer, op string) int {
	if r == nil {
		return noSpan
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Op: op})
	// The clock is read after the append so growing the slice falls
	// outside the span.
	r.spans[id].Start = int64(time.Since(r.t0))
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// count attaches a count read at the same boundary as the span.
func (r *recorder) count(id int, key string, v float64) {
	if r == nil || id == noSpan {
		return
	}
	r.mu.Lock()
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] += v
	r.mu.Unlock()
}

// selectSpans returns the spans of one (layer, op).
func (r *recorder) selectSpans(layer, op string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Layer == layer && s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// micros returns the durations of one (layer, op) in microseconds.
func (r *recorder) micros(layer, op string) []float64 {
	var out []float64
	for _, s := range r.selectSpans(layer, op) {
		out = append(out, float64(s.End-s.Start)/1e3)
	}
	return out
}

// sum totals one count over the spans of a (layer, op).
func (r *recorder) sum(layer, op, key string) float64 {
	t := 0.0
	for _, s := range r.selectSpans(layer, op) {
		t += s.Counts[key]
	}
	return t
}

// selfTimes returns each layer's self time in nanoseconds: a span's
// duration minus the part of that interval its child spans cover.
// Children that run side by side (the two HTTP connections) each keep
// their own time, so under concurrency the self times are busy times
// and may sum to more than the root span.
func (r *recorder) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += float64(s.End - s.Start - covered)
	}
	return self
}

// check reports spans that never ended or whose parent is missing.
func (r *recorder) check() error {
	for _, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s/%s) never ended", s.ID, s.Layer, s.Op)
		}
		if s.Parent != noSpan && (s.Parent < 0 || s.Parent >= len(r.spans)) {
			return fmt.Errorf("trace: span %d (%s/%s) has no parent %d", s.ID, s.Layer, s.Op, s.Parent)
		}
	}
	return nil
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	SelfNs   map[string]float64 `json:"self_ns_by_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, files []traceFile) error {
	raw, err := json.Marshal(files)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
