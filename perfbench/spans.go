package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRecorder keeps the traced run's spans in memory and writes them as a
// Chrome trace-event file (loadable in Perfetto or chrome://tracing) when
// the run ends. Every span is recorded by the benchmark around a call into
// one layer of the program; it carries its own id, the id of the span that
// caused it and the id of the operation (request, search or bootstrap
// call) it belongs to. A nil recorder records nothing, which is how the
// untraced phases run the same code.
type spanRecorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	next  int64
}

// span is one finished span. tid is the client or main goroutine that
// made the call.
type span struct {
	name       string
	id, parent int64
	op         int64
	tid        int
	start      time.Time
	dur        time.Duration
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{base: time.Now()} }

// newID reserves a span id, so a parent can hand its id to its children
// before it ends. Ids start at 1; 0 means "no parent".
func (r *spanRecorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved id.
func (r *spanRecorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as a child span of parent and returns its duration, which
// the caller uses whether or not the recorder is nil.
func (r *spanRecorder) timed(name string, parent, op int64, tid int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r != nil {
		r.add(span{name: name, id: r.newID(), parent: parent, op: op, tid: tid, start: start, dur: d})
	}
	return d
}

// durations returns the durations of every span with the given name.
func (r *spanRecorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans to dir/name as {"traceEvents": [...]}, with
// ts and dur in microseconds from the recorder's creation, and metadata
// naming the process after the workload and recording the host.
func (r *spanRecorder) writeChrome(dir, name, workload string, host hostInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans)+2)
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench " + workload}},
		traceEvent{Name: "host", Ph: "M", Pid: 1, Args: map[string]any{"host": host}})
	for _, s := range r.spans {
		args := map[string]any{"id": s.id, "op": s.op}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: "perfbench", Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Sub(r.base)) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: args,
		})
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
