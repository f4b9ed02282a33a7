package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// chromeEvent is one trace_event entry in the Chrome/Perfetto JSON
// format: ph "X" is a complete event with microsecond ts/dur.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container both chrome://tracing
// and Perfetto accept.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// chromeEvents converts the tracer's snapshot. Span tids become trace
// tids, so streams and morsel workers land on their own tracks.
func chromeEvents(t *Tracer) []chromeEvent {
	snap := t.Snapshot()
	evs := make([]chromeEvent, 0, len(snap))
	for _, s := range snap {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.StartNs) / 1e3,
			Dur:  float64(s.DurNs) / 1e3,
			PID:  1,
			TID:  s.TID,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// WriteChromeTrace writes the tracer's completed spans as a Chrome
// trace_event JSON file (load it into chrome://tracing or
// https://ui.perfetto.dev). Events are sorted by start time.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	// Encode into a buffer first so w sees either a complete document
	// or nothing, and the single Write below is the only fallible I/O.
	data, err := json.Marshal(chromeTrace{TraceEvents: chromeEvents(t)})
	if err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}

// WriteFile renders the tracer through render into path — the shared
// CLI plumbing behind the -trace flags. Close errors are
// folded into the returned error so a full disk is never silent.
func WriteFile(path string, t *Tracer, render func(io.Writer, *Tracer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("obs: closing %s: %w", path, cerr)
		}
	}()
	return render(f, t)
}

// ValidateChromeTrace checks the invariants the CI smoke job asserts
// about an exported trace: well-formed JSON, at least one complete
// ("X") event, non-negative durations, and non-decreasing timestamps.
func ValidateChromeTrace(data []byte) error {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	complete := 0
	lastTS := -1.0
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Dur < 0 {
			return fmt.Errorf("obs: event %d (%s) has negative duration %v", i, ev.Name, ev.Dur)
		}
		if ev.TS < lastTS {
			return fmt.Errorf("obs: event %d (%s) breaks ts monotonicity (%v after %v)",
				i, ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
	if complete == 0 {
		return fmt.Errorf("obs: trace contains no complete events")
	}
	return nil
}

// WriteText appends a plain-text dump of every instrument to w, sorted
// by name, in the shape the dsbench report embeds. Histograms whose
// name ends in "_ns" render their statistics as durations.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name := range r.counters {
		counters[name] = r.counters[name].Value()
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name := range r.histograms {
		hists[name] = r.histograms[name]
	}
	r.mu.Unlock()

	for _, name := range sortedKeysC(counters) {
		fmt.Fprintf(&buf, "counter %-32s %d\n", name, counters[name])
	}
	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := hists[name]
		fmt.Fprintf(&buf, "hist    %-32s count=%d p50=%s p95=%s max=%s\n",
			name, h.Count(),
			histValue(name, h.Quantile(0.50)),
			histValue(name, h.Quantile(0.95)),
			histValue(name, h.Max()))
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("obs: writing metrics dump: %w", err)
	}
	return nil
}

// CounterValues snapshots every counter's current value by name — the
// machine-readable sibling of WriteText for run artifacts. Nil-safe.
func (r *Registry) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// sortedKeysC returns map keys in sorted order (map iteration order is
// random; exports must be stable).
func sortedKeysC(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// histValue renders one histogram statistic, as a duration for "_ns"
// histograms.
func histValue(name string, v int64) string {
	if len(name) >= 3 && name[len(name)-3:] == "_ns" {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}
