package obs

import "time"

// Watch is a monotonic stopwatch. It exists so deterministic packages never
// touch the wall clock directly: time.Now lives here, in the execution-only
// obs package, and callers only ever feed the elapsed duration back into
// obs sinks. The zero Watch reads as zero elapsed.
type Watch struct {
	start time.Time
}

// StartWatch starts a stopwatch at the current monotonic clock reading.
func StartWatch() Watch { return Watch{start: time.Now()} }

// Elapsed returns the time since StartWatch (0 for a zero Watch). The
// monotonic clock reading embedded in the start time makes this immune to
// wall-clock adjustments.
func (w Watch) Elapsed() time.Duration {
	if w.start.IsZero() {
		return 0
	}
	return time.Since(w.start)
}

// ElapsedNS is Elapsed in integer nanoseconds, for hot paths that hand the
// reading straight to an atomic accumulator.
func (w Watch) ElapsedNS() int64 { return int64(w.Elapsed()) }

// Started reports whether the watch was started (false for the zero value).
func (w Watch) Started() bool { return !w.start.IsZero() }
