// Package obs is the execution-only observability layer: named atomic
// counters, a monotonic stopwatch, per-run telemetry collection (reports,
// JSONL event streams, a live progress line), and an opt-in debug HTTP
// endpoint serving pprof and expvar.
//
// There is one duration primitive per scope. Process-wide, a duration is a
// counter of nanoseconds next to the counter of how many things were timed
// (trace.synthesize_ns beside trace.datasets_synthesized). Per cell, it is
// a named phase (CellObs.Phase) whose nesting is spelled in the name:
// "sweep/worker" is inside "sweep", and "synthesize/wait" is time a cell
// spent blocked on a shared computation another cell or the prefetcher ran.
//
// Everything in this package is measurement, never physics. Obs values must
// not flow back into simulation results: the detrand analyzer registers the
// package as execution-only — deterministic packages may write to counters
// and phases, but reading a value back (Counter.Value, Registry snapshots,
// ReadMem) from deterministic code is a lint finding. That contract is what
// lets the instrumented pipeline keep its byte-identical-manifest guarantee
// (see harness.TestTelemetryDoesNotPerturbManifest).
//
// The hot-path story: counters are single atomic adds on package-level vars
// (no allocation, so //dosn:hotpath functions may increment them), and all
// heavier work — heap snapshots, event encoding, progress redraws — happens
// only behind a non-nil *Collector / *CellObs, whose methods are nil-receiver
// safe so instrumentation sites call them unconditionally.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing named metric. The zero value is
// usable but unregistered; obtain registered counters via Registry.Counter
// or the package-level C.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one. Safe for concurrent use; allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Safe for concurrent use; allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count. Execution-only: deterministic packages
// must not read this back (detrand flags it).
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the counter's registered name ("" for an unregistered zero
// value).
func (c *Counter) Name() string { return c.name }

// Registry is a named metric namespace. Lookups are get-or-create and
// return the same instance for the same name, so instrumented packages
// hoist them into package-level vars and pay only the atomic op per event.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry. Most code uses the package-level
// Default registry; tests use fresh registries for isolation.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Default is the process-wide registry. Instrumented packages register
// their metrics here at init; the debug endpoint and telemetry reports
// snapshot it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Counters snapshots every registered counter (zeros included — the debug
// endpoint wants the full namespace). Execution-only; see Counter.Value.
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// CounterNames returns the registered counter names in sorted order.
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// C returns the named counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }
