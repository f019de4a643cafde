// Package query is the analysis layer over the flight recorder's
// collection layer: it reads any recorder JSONL trace — including one left
// behind by an interrupted or killed campaign — rebuilds the span tree the
// instrumented layers emitted (campaign → cell → baseline/sampled →
// sampling phases, or fuzz round → minimize), and computes a deterministic
// campaign cost report: wall-clock attribution by phase, cell and stratum,
// the campaign critical path through the bounded worker pool, baseline
// cache economics, and sample cost per confidence-interval point.
//
// Everything is derived purely from trace content (seq order and relative
// t_ns timestamps), never from the host clock, so the same trace always
// produces the byte-identical report — the property the golden tests and
// the CI health artifact rely on.
package query

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Event is one decoded flight-recorder line. The envelope fields the
// recorder writes on every line (seq, t_ns, kind) and the span tagging
// fields (span, parent, name) are lifted out; everything else stays in
// Fields as decoded JSON values.
type Event struct {
	Seq    uint64
	TNs    int64
	Kind   string
	Span   uint64
	Parent uint64
	Name   string
	Fields map[string]any
}

// Str returns the named string field ("" when absent or not a string).
func (e Event) Str(key string) string {
	s, _ := e.Fields[key].(string)
	return s
}

// Num returns the named numeric field (0 when absent or not a number).
func (e Event) Num(key string) float64 {
	f, _ := e.Fields[key].(float64)
	return f
}

// Span is one reconstructed interval of the trace: a span.begin line
// paired with its span.end (or left open by an interrupted run), its
// parent/child links, and the events attached to it.
type Span struct {
	// ID and Parent are the recorder-scoped span ids (Parent 0 for roots).
	ID, Parent uint64
	// Name is the span's name from span.begin.
	Name string
	// StartNs and EndNs bound the interval in trace-relative nanoseconds;
	// for a span left open by an interrupted run, EndNs is the trace's
	// last timestamp.
	StartNs, EndNs int64
	// StartSeq is the span.begin sequence number — the deterministic
	// tie-breaker everywhere intervals compare equal.
	StartSeq uint64
	// Open reports the span never ended (the run was interrupted, or the
	// byte limit swallowed the end line).
	Open bool
	// Begin and End hold the fields of the two lifecycle lines (End is
	// nil while Open).
	Begin, End map[string]any
	// Children are the span's child spans in begin order; Events the
	// non-lifecycle events attached to the span, in seq order.
	Children []*Span
	Events   []Event
}

// Dur is the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.EndNs - s.StartNs }

// SelfNs is the span's duration minus its children's (clamped at 0) — the
// time attributable to the span itself.
func (s *Span) SelfNs() int64 {
	self := s.Dur()
	for _, c := range s.Children {
		self -= c.Dur()
	}
	if self < 0 {
		self = 0
	}
	return self
}

// beginStr returns a string field of the span.begin line.
func (s *Span) beginStr(key string) string {
	v, _ := s.Begin[key].(string)
	return v
}

// endNum returns a numeric field of the span.end line.
func (s *Span) endNum(key string) float64 {
	v, _ := s.End[key].(float64)
	return v
}

// Trace is a fully parsed flight-recorder trace.
type Trace struct {
	// Events are all decoded lines in seq order.
	Events []Event
	// Spans are the reconstructed spans in begin order; Roots the
	// parentless ones.
	Spans []*Span
	Roots []*Span
	// EndNs is the last timestamp of the trace — the campaign's total
	// traced wall-clock, since t_ns is relative to recorder start.
	EndNs int64
	// Dropped is the drop count the trace.end line reported.
	Dropped uint64
	// Clean reports a trace.end line was present: the recorder was closed
	// properly. A false value means the producing process was interrupted.
	Clean bool
	// TornTail reports the final line was incomplete (process killed
	// mid-write) and was skipped — the read-side analogue of the
	// DropPartialTail repair contract.
	TornTail bool
}

// maxLine bounds one trace line; recorder lines are short, but minimized
// fuzz specs or error strings can stretch them.
const maxLine = 1 << 20

// ReadEvents decodes a flight-recorder JSONL stream into events sorted by
// seq. A torn final line (process killed mid-write) is skipped and
// reported via the second return; a malformed line anywhere else is an
// error.
func ReadEvents(r io.Reader) ([]Event, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var events []Event
	var torn bool
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			// Only the final line may be torn; peek for more content.
			if sc.Scan() {
				return nil, false, fmt.Errorf("query: line %d: %w", lineNo, err)
			}
			torn = true
			break
		}
		ev := Event{Fields: m}
		if v, ok := m["seq"].(float64); ok {
			ev.Seq = uint64(v)
			delete(m, "seq")
		}
		if v, ok := m["t_ns"].(float64); ok {
			ev.TNs = int64(v)
			delete(m, "t_ns")
		}
		if v, ok := m["kind"].(string); ok {
			ev.Kind = v
			delete(m, "kind")
		}
		if v, ok := m["span"].(float64); ok {
			ev.Span = uint64(v)
			delete(m, "span")
		}
		if v, ok := m["parent"].(float64); ok {
			ev.Parent = uint64(v)
			delete(m, "parent")
		}
		if v, ok := m["name"].(string); ok {
			ev.Name = v
			delete(m, "name")
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("query: %w", err)
	}
	// The recorder's seq is the trace's deterministic total order; sorting
	// restores it however the lines were interleaved or shuffled on the
	// way here. The sort is stable so duplicate seqs (never produced by
	// one recorder) keep stream order.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events, torn, nil
}

// ReadSpans parses a flight-recorder JSONL stream and rebuilds its span
// tree. Interrupted traces are first-class: spans without a span.end stay
// Open with EndNs pinned to the trace's last timestamp, and a torn final
// line is skipped.
func ReadSpans(r io.Reader) (*Trace, error) {
	events, torn, err := ReadEvents(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Events: events, TornTail: torn}
	byID := make(map[uint64]*Span)
	for _, ev := range events {
		if ev.TNs > t.EndNs {
			t.EndNs = ev.TNs
		}
		switch ev.Kind {
		case "span.begin":
			s := &Span{
				ID: ev.Span, Parent: ev.Parent, Name: ev.Name,
				StartNs: ev.TNs, StartSeq: ev.Seq, Open: true,
				Begin: ev.Fields,
			}
			byID[s.ID] = s
			t.Spans = append(t.Spans, s)
		case "span.end":
			if s := byID[ev.Span]; s != nil {
				s.EndNs = ev.TNs
				s.End = ev.Fields
				s.Open = false
			}
		case "trace.end":
			t.Clean = true
			t.Dropped = uint64(ev.Num("dropped"))
		default:
			if s := byID[ev.Span]; s != nil {
				s.Events = append(s.Events, ev)
			}
		}
	}
	for _, s := range t.Spans {
		if s.Open {
			s.EndNs = t.EndNs
		}
		if p := byID[s.Parent]; s.Parent != 0 && p != nil {
			p.Children = append(p.Children, s)
		} else {
			t.Roots = append(t.Roots, s)
		}
	}
	return t, nil
}

// ReadFile reads and parses the trace at path. The file is opened
// read-only — a torn tail is skipped in memory rather than truncated on
// disk, so querying a live in-flight trace never mutates it.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpans(bufio.NewReaderSize(f, 256<<10))
}
