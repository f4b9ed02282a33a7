package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// Values of Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.0, 2.1, 2.2, 2.4, 2.5, 2.6, 2.9, 3.0, 3.1, 3.3}, 2.175, 2.55, 3.025},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileAndSupportedTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The sample counts of the four workloads, and the edges of the rule.
	for _, c := range []struct {
		n    int
		want float64
	}{{1188, 0.99}, {396, 0.95}, {200, 0.95}, {199, 0.90}, {72, 0.75}, {24, 0.50}, {19, 0}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sp := func(id, parent int, layer string, start, end int) span {
		return span{ID: id, Parent: parent, Layer: layer, Start: ms(start), End: ms(end)}
	}
	spans := []span{
		sp(0, -1, "bench", 0, 100),  // root
		sp(1, 0, "driver", 10, 90),  // nested under the root
		sp(2, 1, "exec", 20, 50),    // two overlapping children: two streams
		sp(3, 1, "exec", 40, 70),    //   cover 20..70 of the driver span once
		sp(4, 1, "storage", 70, 80), // a sibling right after them
		sp(5, 1, "exec", 85, 95),    // a child reaching past its parent is clipped
		sp(6, 2, "sql", 20, 25),     // nested two levels down
	}
	want := []int{20, 15, 25, 30, 10, 10, 5}
	got := selfTimes(spans)
	for i, w := range want {
		if got[i] != ms(w) {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], ms(w))
		}
	}
	tr := &tracer{spans: spans}
	byLayer := tr.layerSelf()[0]
	if byLayer["exec"] != ms(65) || byLayer["bench"] != ms(20) {
		t.Errorf("layer self = %v", byLayer)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("nothing", "bench", 0)) // a nil tracer records nothing
	tr := newTracer("w")
	if id := tr.begin("off", "bench", 0); id != -1 || len(tr.spans) != 0 {
		t.Fatalf("switched-off tracer recorded a span")
	}
	tr.on = true
	a := tr.begin("a", "bench", 0)
	b := tr.begin("b", "exec", 7)
	tr.end(b)
	c := tr.add(a, "c", "driver", 0, time.Millisecond, time.Millisecond)
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents = %d %d %d", tr.spans[a].Parent, tr.spans[b].Parent, tr.spans[c].Parent)
	}
	if tr.spans[c].Start != tr.spans[a].Start+time.Millisecond || tr.spans[b].Query != 7 {
		t.Errorf("span fields: %+v %+v", tr.spans[b], tr.spans[c])
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

// A wrong digest fails the operation: against the golden outcome when
// there is one, else against the first outcome seen under the same key.
func TestCheckerCountsMismatches(t *testing.T) {
	c := &checker{golden: map[string]string{"run=1 stream=0 q52": "rows=13 sum=00000000deadbeef"}, seen: map[string]string{}}
	c.op("run=1 stream=0 q52", nil)
	c.outcome("run=1 stream=0 q52", "rows=13 sum=00000000deadbeef")
	if c.failed != 0 {
		t.Fatalf("matching digest failed: %v", c.failures)
	}
	c.op("run=1 stream=0 q52", nil)
	c.outcome("run=1 stream=0 q52", "rows=13 sum=00000000deadbeee")
	c.op("cycle=30 q20", nil)
	c.outcome("cycle=30 q20", "rows=1 sum=01")
	c.op("cycle=30 q20", nil)
	c.outcome("cycle=30 q20", "rows=1 sum=02")
	c.op("load", os.ErrNotExist)
	if c.attempted != 5 || c.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3: %v", c.attempted, c.failed, c.failures)
	}
	key, outcome, ok := splitDigestLine("run=2 stream=1 q7 rows=100 sum=0123456789abcdef")
	if !ok || key != "run=2 stream=1 q7" || outcome != "rows=100 sum=0123456789abcdef" {
		t.Errorf("splitDigestLine = %q %q %v", key, outcome, ok)
	}
	for _, w := range workloads {
		if _, err := newChecker(w.name, true); err != nil {
			t.Errorf("committed golden file: %v", err)
		}
	}
}

// benchmarkFile is BENCHMARK.json as the contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// BENCHMARK.json and the harness declare the same workloads and
// metrics, within the contract's limits. (That the harness emits every
// declared metric is the smoke test's part.)
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the harness defaults to %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, declared []benchmarkMetric, have []metricDef, limit int) {
		if len(declared) != len(have) || len(declared) > limit {
			t.Fatalf("%d %s metrics declared, the harness has %d, the limit is %d", len(declared), kind, len(have), limit)
		}
		for i, m := range declared {
			unique(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not fit the contract", m.Name, m.Unit)
			}
			if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != have[i] {
				t.Errorf("%s metric %d: declared %+v, the harness has %+v", kind, i, got, have[i])
			}
			if kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, 16)
	compare("per_layer", b.PerLayer, perLayer, 128)
	if !seen["setup_s"] {
		t.Errorf("setup_s is not declared")
	}
}
