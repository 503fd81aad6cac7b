package main

// trace.go records the spans of a traced run. Spans are kept in memory
// and written once, when the run ends; a layer's self time is its span
// time minus the time its child spans cover.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    string `json:"req"`    // the request, table or job the span served
}

// tracer collects spans. A nil tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// layerTimes are the self times of a trace, per span name.
type layerTimes struct {
	self map[string]time.Duration
	// total is the summed duration of the root spans: the traced
	// end-to-end time that the self times plus the root residual add up to.
	total time.Duration
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}}
	if t == nil {
		return lt
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt.self[s.Name] += time.Duration(s.End - s.Start - covered[i])
		if s.Parent < 0 {
			lt.total += time.Duration(s.End - s.Start)
		}
	}
	return lt
}

// ms returns the self time of layer name in milliseconds per unit.
func (lt layerTimes) ms(name string, units int) float64 {
	if units == 0 {
		return 0
	}
	return float64(lt.self[name]) / 1e6 / float64(units)
}

// write saves the spans and the run's environment as JSON.
func (t *tracer) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"env": env, "spans": t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
