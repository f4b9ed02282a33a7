package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the harness into a layer. Spans are
// recorded around the layers' exported functions, from the harness's
// own files; spans inside the program are a later change.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // -1 for a root
	Name     string        `json:"name"`
	Layer    string        `json:"layer"`
	Workload string        `json:"workload"`
	Rep      int           `json:"rep"`             // -1 outside the timed repetitions (set-up, probes)
	Query    int           `json:"query,omitempty"` // template id, 0 when the span is not a query
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer, or one switched off, records nothing: the end-to-end run
// and the untraced repetitions of the traced run take that path. The
// harness calls into the layers from one goroutine, so the open spans
// form a stack.
type tracer struct {
	epoch    time.Time
	on       bool
	workload string
	rep      int
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, rep: -1}
}

// begin opens a span under the innermost open one and returns its id,
// -1 when tracing is off.
func (t *tracer) begin(name, layer string, query int) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rep: t.rep, Query: query, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// add records a span whose interval was measured elsewhere — the phases
// and queries inside driver.Run, rebuilt from its result — placed at
// offset from the start of span parent.
func (t *tracer) add(parent int, name, layer string, query int, offset, dur time.Duration) int {
	if parent < 0 {
		return -1
	}
	id := len(t.spans)
	start := t.spans[parent].Start + offset
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rep: t.rep, Query: query, Start: start, End: start + dur})
	return id
}

// layerSelf sums self time by layer for each timed repetition that
// recorded spans.
func (t *tracer) layerSelf() map[int]map[string]time.Duration {
	out := map[int]map[string]time.Duration{}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if s.Rep < 0 {
			continue
		}
		if out[s.Rep] == nil {
			out[s.Rep] = map[string]time.Duration{}
		}
		out[s.Rep][s.Layer] += self[i]
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
