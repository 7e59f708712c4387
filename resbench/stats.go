package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie beyond a percentile before a
// run may report it: fewer, and the percentile is one or two samples'
// luck rather than a property of the system.
const tailBeyond = 10

// rank is the 1-based nearest-rank position of quantile q among n
// sorted samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of xs (unsorted; not
// modified). It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// tailOK reports whether quantile q over n samples has at least
// tailBeyond samples beyond it.
func tailOK(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= tailBeyond
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest candidate percentile that has at
// least tailBeyond samples beyond it among n samples, or 0 when even
// the median does not.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if tailOK(q, n) {
			return q
		}
	}
	return 0
}

// median of xs (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopLatency is the latency of an open-loop request: from when it
// was due, not from when the generator got round to sending it, so a
// stalled generator or a full set of in-flight slots shows up in the
// latency of every request it delayed.
func openLoopLatency(scheduled, done time.Time) time.Duration { return done.Sub(scheduled) }

// lateness is how far behind its schedule the generator sent a request.
func lateness(scheduled, sent time.Time) time.Duration {
	if sent.Before(scheduled) {
		return 0
	}
	return sent.Sub(scheduled)
}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent indexes the enclosing span in the same operation's
// trace (-1 for the operation's root).
type span struct {
	Layer      string
	Parent     int
	Start, End time.Time
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Children that overlap
// (parallel work) are counted once, and parts of a child outside its
// parent are ignored.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Time, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, [2]time.Time{a, b})
			}
		}
		out[i] = s.End.Sub(s.Start) - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = iv[0], iv[1]
			continue
		}
		if iv[1].After(curB) {
			curB = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads the Prometheus text format that GET /metrics serves.
// Comment lines are skipped; a malformed line is an error, so a change
// in the exposition cannot silently zero a layer's numbers.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	name, rest := line, ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if name == "" {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.Name = name
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 {
				return s, fmt.Errorf("bad label set in %q", line)
			}
			key := rest[:eq]
			val, tail, err := unquoteLabel(rest[eq+1:])
			if err != nil {
				return s, fmt.Errorf("label %s in %q: %w", key, line, err)
			}
			s.Labels[key] = val
			rest = tail
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// unquoteLabel reads one double-quoted label value (Go %q escaping, as
// the exposition writes it) off the front of s.
func unquoteLabel(s string) (val, rest string, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("unquoted value")
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := strconv.Unquote(s[:i+1])
			return v, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated value")
}

// promSum adds every series called name whose labels include all of
// the given key/value pairs.
func promSum(samples []promSample, name string, kv ...string) float64 {
	var total float64
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// scrape is one /metrics reading from every node of a deployment.
type scrape [][]promSample

// delta returns after-minus-before of a counter or histogram component
// summed across nodes.
func delta(before, after scrape, name string, kv ...string) float64 {
	var d float64
	for i := range after {
		d += promSum(after[i], name, kv...)
		if i < len(before) {
			d -= promSum(before[i], name, kv...)
		}
	}
	return d
}

// histMean is the mean of the observations a histogram gained between
// two scrapes, in the histogram's unit, or 0 if it gained none.
func histMean(before, after scrape, name string, kv ...string) float64 {
	n := delta(before, after, name+"_count", kv...)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum", kv...) / n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
