package main

import "time"

// span is one benchmark-owned span: recorded by the benchmark around a call
// into a layer, never by the program. Spans of one replayed query share
// Query; Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Query   string  `json:"query"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// SelfUs is the span's duration minus the part its children cover.
	SelfUs float64 `json:"self_us"`
}

// spanLog keeps spans in memory until the pass ends. The replay is single
// threaded, so it needs no lock.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() float64 { return float64(time.Since(l.t0).Nanoseconds()) / 1e3 }

// start opens a span and returns its ID.
func (l *spanLog) start(parent int, query, name string) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Query: query, Name: name, StartUs: l.now()})
	return len(l.spans)
}

// end closes a span and returns its duration in microseconds.
func (l *spanLog) end(id int) float64 {
	s := &l.spans[id-1]
	s.EndUs = l.now()
	return s.EndUs - s.StartUs
}

// finish computes every span's self time: its duration minus its children's
// durations. Children of one parent never overlap here, because the replay
// runs its steps one after another.
func (l *spanLog) finish() {
	for i := range l.spans {
		l.spans[i].SelfUs = l.spans[i].EndUs - l.spans[i].StartUs
	}
	for _, s := range l.spans {
		if s.Parent > 0 {
			l.spans[s.Parent-1].SelfUs -= s.EndUs - s.StartUs
		}
	}
}
