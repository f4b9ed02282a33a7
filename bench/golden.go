package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tpcds/internal/exec"
)

// goldenSeed is the seed the committed digests were recorded with.
const goldenSeed = 1

//go:embed golden/*.digest
var goldenFS embed.FS

// checker counts the operations a run attempts and the ones that fail:
// an operation that returns an error, or whose outcome (result digest,
// row count) disagrees with the committed golden outcome — for the
// default seed and scale factor — or, on any other input, with the
// first outcome the same run saw under the same key.
type checker struct {
	golden    map[string]string // key -> outcome; nil when this input has no golden file
	seen      map[string]string
	attempted int
	failed    int
	failures  []string // first few, for the report
}

func newChecker(workload string, useGolden bool) (*checker, error) {
	c := &checker{seen: map[string]string{}}
	if !useGolden {
		return c, nil
	}
	data, err := goldenFS.ReadFile("golden/" + workload + ".digest")
	if err != nil {
		return nil, fmt.Errorf("golden digest for %s: %w (record it with -update-golden)", workload, err)
	}
	c.golden = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, outcome, ok := splitDigestLine(line)
		if !ok {
			return nil, fmt.Errorf("golden digest for %s: malformed line %q", workload, line)
		}
		c.golden[key] = outcome
	}
	return c, nil
}

// splitDigestLine cuts "<key> rows=<n>[ sum=<hex>]" at " rows=".
func splitDigestLine(line string) (key, outcome string, ok bool) {
	i := strings.Index(line, " rows=")
	if i <= 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// op counts one attempted operation and, on error, one failure.
func (c *checker) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, msg)
	}
}

// outcome verifies the outcome of an operation already counted by op.
func (c *checker) outcome(key, got string) {
	want, ok := c.golden[key]
	if !ok {
		if want, ok = c.seen[key]; !ok {
			c.seen[key] = got
			return
		}
	}
	if want != got {
		c.fail(fmt.Sprintf("%s: got %s, want %s", key, got, want))
	}
}

// queryOutcome renders a result the way dsbench -digest does.
func queryOutcome(rows int, sum uint64) string {
	return fmt.Sprintf("rows=%d sum=%016x", rows, sum)
}

// writeGolden rewrites the workload's golden file from this run's
// outcomes. It must run from the repository root.
func (c *checker) writeGolden(workload string) error {
	lines := make([]string, 0, len(c.seen))
	for k, v := range c.seen {
		lines = append(lines, k+" "+v)
	}
	sort.Strings(lines)
	path := filepath.Join("bench", "golden", workload+".digest")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return fmt.Errorf("update golden: %w (run from the repository root)", err)
	}
	return nil
}

// resultChecksum digests a query result — column names, then every
// value of every row in order — with FNV-1a, bit for bit the digest
// driver.Config.Digest computes (the driver's function is unexported),
// so the serial workloads' golden lines compare with dsbench -digest.
func resultChecksum(r *exec.Result) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s []byte) {
		for _, b := range s {
			h ^= uint64(b)
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	for _, c := range r.Columns {
		mix([]byte(c))
	}
	var buf []byte
	for _, row := range r.Rows {
		for _, v := range row {
			buf = v.AppendGroupKey(buf[:0])
			mix(buf)
		}
	}
	return h
}
