package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API. Parent is the index of
// the enclosing span, -1 for a root. All spans of one child process share
// its run id.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer times every layer-boundary call the harness makes. Durations are
// always returned — setup and run time need them traced or not — but spans
// are only kept when on is set, so an untraced run records nothing. The
// harness calls into the simulator from one goroutine, so a stack suffices
// to find a span's parent.
type tracer struct {
	on     bool
	runID  string
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer(on bool, runID string) *tracer {
	return &tracer{on: on, runID: runID, origin: time.Now()}
}

// do runs fn inside a span and returns its wall time in seconds.
func (t *tracer) do(name string, fn func()) float64 {
	start := time.Now()
	id := -1
	if t.on {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.origin)})
		t.stack = append(t.stack, id)
	}
	fn()
	end := time.Now()
	if id >= 0 {
		t.spans[id].End = end.Sub(t.origin)
		t.stack = t.stack[:len(t.stack)-1]
	}
	return end.Sub(start).Seconds()
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format; args
// carry what the viewer does not model: span id, parent id and run id.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome-trace JSON (chrome://tracing, Perfetto).
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "run": t.runID,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
