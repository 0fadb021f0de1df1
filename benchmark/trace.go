package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around its calls into
// a layer. Spans live in memory and are written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the spans and transport counts of a traced run. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch     time.Time
	spans     []span
	transport transportCounts
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<12)} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
