package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Job    string    `json:"job,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of it. Not safe for
// concurrent use: the benchmark drives one job at a time.
type tracer struct {
	spans []span
}

func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Now()
}

func (t *tracer) setJob(id int, job string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Job = job
}

// record adds a span timed elsewhere (by the daemon's own timestamps or
// by a caller that already holds both ends).
func (t *tracer) record(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: start, End: end})
	return len(t.spans)
}

// durations returns the durations of every span with the given name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][2]time.Duration{}
	for _, s := range t.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start.Before(cs[b].Start) })
		var covered time.Duration
		cur := s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		v := out[s.Name]
		v[0] += s.dur()
		v[1] += s.dur() - covered
		out[s.Name] = v
	}
	return out
}

// write saves every span as one JSON line, then a self-time summary.
func (t *tracer) write(path string, summary io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(summary, "# trace: %d spans written to %s\n", len(t.spans), path)
	for _, n := range names {
		fmt.Fprintf(summary, "# span %-22s n=%-4d total_s=%.6f self_s=%.6f\n",
			n, len(t.durations(n)), st[n][0].Seconds(), st[n][1].Seconds())
	}
	return nil
}
