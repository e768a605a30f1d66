package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Parent is the
// index of the innermost span open when it began (-1 at top level) and run
// is the unit (cell, figure or experiment) that caused it. aggNS is time
// spent in children too numerous to record one by one (policy Select
// calls), counted against the span's self time.
type span struct {
	name   string
	kind   string
	n      int64 // work done inside the span: users, activities, ...
	start  int64 // ns since the recorder's origin
	end    int64
	parent int32
	run    int32
	aggNS  int64
}

// recorder keeps every span of one traced replay in memory. The replay is
// single-threaded, but a few core entry points still prebuild schedule
// tables on a helper goroutine, so the recorder is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32
	run   int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRun labels the spans that begin from now on with unit index i.
func (r *recorder) setRun(i int) {
	r.mu.Lock()
	r.run = int32(i)
	r.mu.Unlock()
}

func (r *recorder) begin(name, kind string, n int64) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, kind: kind, n: n, parent: parent, run: r.run, start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// setN sets the work count of span id once it is known.
func (r *recorder) setN(id int32, n int64) {
	r.mu.Lock()
	r.spans[id].n = n
	r.mu.Unlock()
}

// end closes span id; aggNS adds aggregated child time to it.
func (r *recorder) end(id int32, aggNS int64) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	r.spans[id].aggNS += aggNS
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// do records f as one span.
func (r *recorder) do(name, kind string, n int64, f func()) {
	id := r.begin(name, kind, n)
	f()
	r.end(id, 0)
}

// layerStat sums the spans of one name.
type layerStat struct {
	count  int64
	n      int64
	ns     int64
	selfNS int64 // span minus recorded children and aggregated child time
}

// stats aggregates spans by name, or by name+"/"+kind when byKind is set.
func (r *recorder) stats(byKind bool) map[string]layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	childNS := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			childNS[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerStat)
	for i, s := range r.spans {
		key := s.name
		if byKind {
			key += "/" + s.kind
		}
		st := out[key]
		st.count++
		st.n += s.n
		st.ns += s.end - s.start
		st.selfNS += s.end - s.start - childNS[i] - s.aggNS
		out[key] = st
	}
	return out
}

// topLevelNS is the summed duration of the spans that have no parent.
func (r *recorder) topLevelNS() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.parent < 0 {
			ns += s.end - s.start
		}
	}
	return ns
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), viewable in Perfetto.
func (r *recorder) writeChromeTrace(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.name, Cat: s.kind, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "run": s.run, "n": s.n, "agg_child_us": float64(s.aggNS) / 1e3},
		})
	}
	r.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
