package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vf2boost/internal/trace"
)

// span is one traced interval. Parent is the index of the span that
// caused it in the log, or -1 for a root.
type span struct {
	Lane, Label string
	Start, End  time.Duration // offsets from the log's origin
	Parent      int
}

// spanLog is the traced run's single recorder: the benchmark's own spans
// around every call it makes into a layer, plus the spans the program
// records itself (core.WithTrace, ServerConfig.Trace), re-parented under
// the benchmark span that ran them. Spans stay in memory until the run
// ends. A nil *spanLog records nothing, so untraced runs share the code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index (usable as a parent) and the
// func that closes it.
func (l *spanLog) begin(lane, label string, parent int) (int, func()) {
	if l == nil {
		return -1, func() {}
	}
	start := time.Since(l.t0)
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, span{Lane: lane, Label: label, Start: start, End: start, Parent: parent})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.t0)
		l.mu.Lock()
		l.spans[id].End = end
		l.mu.Unlock()
	}
}

// do runs fn inside a root-level span.
func (l *spanLog) do(lane, label string, fn func() error) error {
	_, end := l.begin(lane, label, -1)
	defer end()
	return fn()
}

// adopt copies the spans a program-side recorder collected under parent.
// recStart is when the recorder's origin was taken.
func (l *spanLog) adopt(rec *trace.Recorder, recStart time.Time, parent int) {
	if l == nil || rec == nil {
		return
	}
	shift := recStart.Sub(l.t0)
	l.mu.Lock()
	for _, s := range rec.Spans() {
		l.spans = append(l.spans, span{Lane: string(s.Lane), Label: s.Label,
			Start: s.Start + shift, End: s.End + shift, Parent: parent})
	}
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

type interval struct{ lo, hi time.Duration }

// covered is the total length of the union of the intervals.
func covered(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		switch {
		case !open:
			cur, open = x, true
		case x.lo <= cur.hi:
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// laneBusy is the time during which at least one span of the lane was
// open (overlapping spans of a parallel lane count once).
func laneBusy(spans []span) map[string]time.Duration {
	by := map[string][]interval{}
	for _, s := range spans {
		by[s.Lane] = append(by[s.Lane], interval{s.Start, s.End})
	}
	out := make(map[string]time.Duration, len(by))
	for lane, iv := range by {
		out[lane] = covered(iv)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		children[s.Parent] = append(children[s.Parent], interval{lo, hi})
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(children[i])
	}
	return out
}

// writeCSV writes "id,lane,label,start_ms,end_ms,parent" rows.
func writeSpanCSV(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,lane,label,start_ms,end_ms,parent")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%s,%.3f,%.3f,%d\n", i, s.Lane,
			strings.ReplaceAll(s.Label, ",", ";"),
			float64(s.Start)/1e6, float64(s.End)/1e6, s.Parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
