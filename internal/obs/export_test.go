package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

// traceFile points TestTraceFileShape at an externally produced trace:
// the CI smoke job runs dsbench -trace and validates the artifact with
//
//	go test ./internal/obs -run TraceFileShape -tracefile out.json
var traceFile = flag.String("tracefile", "", "chrome trace JSON to validate (CI smoke hook)")

func sampleTracer() *Tracer {
	tr := NewTracer()
	root := tr.Root("run", "driver")
	s0 := root.ChildTID("stream 0", 1)
	q := s0.Child("q5")
	q.SetAttr("rows", 7)
	time.Sleep(200 * time.Microsecond)
	q.End()
	s0.End()
	root.End()
	return tr
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleTracer()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-produced trace fails validation: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(tr.TraceEvents))
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Errorf("event %q: ph=%q pid=%d, want complete events in pid 1", ev.Name, ev.Ph, ev.PID)
		}
	}
	if tr.TraceEvents[0].Name != "run" {
		t.Errorf("first event %q, want the root (events sort by start)", tr.TraceEvents[0].Name)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":   "{",
		"no events":  `{"traceEvents":[]}`,
		"non-X only": `{"traceEvents":[{"name":"m","ph":"M","ts":0,"dur":0,"pid":1,"tid":0}]}`,
		"negative dur": `{"traceEvents":[
			{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]}`,
		"ts regression": `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":0},
			{"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

// TestTraceFileShape validates an externally produced trace file (the
// CI smoke artifact). Skipped unless -tracefile is set.
func TestTraceFileShape(t *testing.T) {
	if *traceFile == "" {
		t.Skip("no -tracefile given; this test validates the CI smoke artifact")
	}
	data, err := os.ReadFile(*traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	// The smoke run drives the full driver stack: require the nested
	// run → stream → query → operator shape, not just any events.
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	names := map[string]int{}
	for _, ev := range tr.TraceEvents {
		cats[ev.Cat]++
		names[ev.Name]++
	}
	for _, want := range []string{"driver", "exec"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q spans (categories: %v)", want, cats)
		}
	}
	// Each layer of the run → stream → query → operator nesting must be
	// present.
	if names["benchmark"] == 0 {
		t.Error("trace has no benchmark root span")
	}
	streams, queries := 0, 0
	for name, n := range names {
		if strings.HasPrefix(name, "stream ") {
			streams += n
		}
		if strings.HasPrefix(name, "q") && !strings.HasPrefix(name, "query") {
			queries += n
		}
	}
	if streams == 0 {
		t.Error("trace has no stream spans")
	}
	if queries == 0 {
		t.Error("trace has no query spans")
	}
	for _, op := range []string{"bind", "aggregate", "sort"} {
		if names[op] == 0 {
			t.Errorf("trace has no %q operator spans (names: %d distinct)", op, len(names))
		}
	}
}
