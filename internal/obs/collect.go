package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// Event is one line of the JSONL event stream (-events out.jsonl). The
// stream is append-only wall-clock truth about execution — it never feeds
// back into results. Schema:
//
//	{"t_ms":12.3,"ev":"run_start"}
//	{"t_ms":14.0,"ev":"cell_start","cell":"facebook/Sporadic/ConRep","worker":2}
//	{"t_ms":60.2,"ev":"phase","cell":"...","phase":"synthesize/wait","worker":2,"ms":46.1,"heap_mb":410.5}
//	{"t_ms":190.7,"ev":"phase","cell":"...","phase":"sweep/worker","worker":2,"ms":120.4,"heap_mb":511.9}
//	{"t_ms":201.5,"ev":"phase","cell":"...","phase":"sweep","worker":2,"ms":142.1,"heap_mb":512.0}
//	{"t_ms":203.0,"ev":"cell_done","cell":"...","worker":2,"ms":189.0,"heap_mb":513.2}
//	{"t_ms":950.8,"ev":"run_done","ms":950.8,"heap_mb":301.7}
//
// t_ms is milliseconds since the collector was created; ms is the duration
// of the thing that just finished. worker identifies the harness worker
// goroutine that ran the cell. Every CellObs.Phase record is one phase
// event, so the stream and the report's phase table always agree.
type Event struct {
	TMS    float64 `json:"t_ms"`
	Ev     string  `json:"ev"`
	Cell   string  `json:"cell,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	Worker int     `json:"worker,omitempty"`
	MS     float64 `json:"ms,omitempty"`
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// Collector gathers one run's telemetry: per-cell phase breakdowns, an
// optional JSONL event stream, and an optional live progress line. A nil
// *Collector is valid everywhere and does nothing, which is the
// zero-cost-when-off switch: instrumentation sites call methods
// unconditionally and pay a nil check when telemetry is disabled.
type Collector struct {
	watch Watch
	reg   *Registry

	mu       sync.Mutex
	header   Report // Workers, CoreWorkers, ShardSize; see SetRun
	cells    []*CellObs
	events   *json.Encoder
	progress *Progress
}

// NewCollector starts a collector reading metrics from the Default
// registry.
func NewCollector() *Collector {
	return &Collector{watch: StartWatch(), reg: Default}
}

// AttachEvents streams JSONL events to w (one Event per line) and emits
// run_start. The caller owns w's lifetime; events stop at Report time with
// run_done.
func (c *Collector) AttachEvents(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = json.NewEncoder(w)
	c.mu.Unlock()
	c.emit(Event{Ev: "run_start"})
}

// AttachProgress routes phase and completion updates to a live progress
// line.
func (c *Collector) AttachProgress(p *Progress) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.progress = p
	c.mu.Unlock()
}

// SetRun tells the collector the run's shape once the harness has resolved
// it: the cell count (for the progress line) and the effective execution
// knobs, which the report header echoes so it is self-describing even when
// the caller left them at their zero defaults.
func (c *Collector) SetRun(cells, workers, coreWorkers, shardSize int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.header = Report{Workers: workers, CoreWorkers: coreWorkers, ShardSize: shardSize}
	p := c.progress
	c.mu.Unlock()
	p.SetTotal(cells)
}

// StartCell begins telemetry for one cell, identified by its manifest key,
// on the given harness worker. Safe from concurrent workers. Returns nil on
// a nil collector.
func (c *Collector) StartCell(key string, worker int) *CellObs {
	if c == nil {
		return nil
	}
	o := &CellObs{col: c, key: key, worker: worker, startMS: c.sinceMS(), watch: StartWatch()}
	c.mu.Lock()
	c.cells = append(c.cells, o)
	c.mu.Unlock()
	c.emit(Event{Ev: "cell_start", Cell: key, Worker: worker})
	return o
}

// sinceMS is milliseconds since the collector started.
func (c *Collector) sinceMS() float64 { return float64(c.watch.ElapsedNS()) / 1e6 }

// emit writes one event line if an event stream is attached. The collector
// stamps t_ms; callers fill the rest.
func (c *Collector) emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.events == nil {
		return
	}
	e.TMS = roundMS(c.sinceMS())
	// Encode errors (a closed file, a full disk) must not fail the run:
	// telemetry is a side artifact by contract.
	_ = c.events.Encode(e)
}

// cellDone records a finished cell: progress, event stream.
func (c *Collector) cellDone(o *CellObs, wallMS float64) {
	c.mu.Lock()
	p := c.progress
	c.mu.Unlock()
	p.CellDone()
	c.emit(Event{Ev: "cell_done", Cell: o.key, Worker: o.worker, MS: roundMS(wallMS), HeapMB: heapMB()})
}

// setPhase updates the live progress line's phase label.
func (c *Collector) setPhase(label string) {
	c.mu.Lock()
	p := c.progress
	c.mu.Unlock()
	p.SetPhase(label)
}

// CellObs collects one cell's telemetry: its phase table. Methods are safe
// from concurrent sweep workers, and a nil *CellObs is valid everywhere and
// does nothing — core.Config carries one only when the caller asked for
// telemetry.
type CellObs struct {
	col     *Collector
	key     string
	worker  int
	startMS float64
	watch   Watch

	mu       sync.Mutex
	phases   []PhaseStat
	wallMS   float64
	cacheHit bool
}

// PhaseStat is one named phase of a cell's execution. Repeated records (one
// sweep/worker per worker goroutine per batch, one sweep/shards per batch)
// accumulate into a single entry: calls, total and longest duration, and
// the heap after the latest call.
type PhaseStat struct {
	Name   string  `json:"name"`
	MS     float64 `json:"ms"`
	MaxMS  float64 `json:"max_ms"`
	Calls  int64   `json:"calls"`
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// Phase records one call of the named phase lasting d: it folds d into the
// phase's entry, emits a phase event, and shows the phase on the progress
// line. Nesting is spelled in the name ("sweep/worker" ran inside "sweep"),
// and a cell that blocked on a shared computation it did not run records
// "<name>/wait" rather than name. Typical use: w := obs.StartWatch(); ...;
// co.Phase("sweep", w.Elapsed()).
func (o *CellObs) Phase(name string, d time.Duration) {
	if o == nil {
		return
	}
	ms := float64(d) / 1e6
	heap := heapMB()
	o.mu.Lock()
	i := slices.IndexFunc(o.phases, func(p PhaseStat) bool { return p.Name == name })
	if i < 0 {
		i = len(o.phases)
		o.phases = append(o.phases, PhaseStat{Name: name})
	}
	st := &o.phases[i]
	st.MS += ms
	st.MaxMS = max(st.MaxMS, ms)
	st.Calls++
	st.HeapMB = heap
	o.mu.Unlock()
	o.col.setPhase(o.key + " · " + name + " done")
	o.col.emit(Event{Ev: "phase", Cell: o.key, Phase: name, Worker: o.worker, MS: roundMS(ms), HeapMB: heap})
}

// MarkScheduleCacheHit notes that this cell reused a schedule set another
// cell already built.
func (o *CellObs) MarkScheduleCacheHit() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.cacheHit = true
	o.mu.Unlock()
}

// Done finalizes the cell: records its wall time and notifies the
// collector (progress, cell_done event).
func (o *CellObs) Done() {
	if o == nil {
		return
	}
	wallMS := float64(o.watch.ElapsedNS()) / 1e6
	o.mu.Lock()
	o.wallMS = wallMS
	o.mu.Unlock()
	o.col.cellDone(o, wallMS)
}

// roundMS trims a millisecond reading to microsecond precision so event
// lines and reports stay readable.
func roundMS(ms float64) float64 {
	return float64(int64(ms*1000+0.5)) / 1000
}
