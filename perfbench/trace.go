package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanID names a recorded span; 0 means "no span" (the root, or tracing
// off).
type spanID int32

// span is one timed call into a layer. Spans of one cell share Cell; a
// span's Parent is the span that made the call.
type span struct {
	Name   string
	Parent spanID
	Cell   int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is used
// from one goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent spanID, cell int) spanID {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Cell: cell, Start: time.Since(t.origin)})
	return spanID(len(t.spans))
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// checkNesting reports the first span that is unfinished, lies outside its
// parent's interval, or belongs to a different cell than its parent.
func (t *tracer) checkNesting() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never ended", i+1, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if int(s.Parent) > i {
			return fmt.Errorf("span %d %q has a later parent %d", i+1, s.Name, s.Parent)
		}
		p := t.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]",
				i+1, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if p.Cell >= 0 && s.Cell != p.Cell {
			return fmt.Errorf("span %d %q is in cell %d, its parent %q in cell %d",
				i+1, s.Name, s.Cell, p.Name, p.Cell)
		}
	}
	return nil
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one track per cell), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", PID: 1, TID: s.Cell + 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i + 1, "parent": int(s.Parent), "cell": s.Cell}}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
