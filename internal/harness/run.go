package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/trace"
	"math/rand"
)

// Execution-only telemetry; see internal/obs. Values flow out to the debug
// endpoint and telemetry reports, never back into manifests.
var (
	obsCellsStarted    = obs.C("harness.cells_started")
	obsCellsDone       = obs.C("harness.cells_done")
	obsSchedHits       = obs.C("harness.schedule_cache_hits")
	obsCellsPrefetched = obs.C("harness.cells_prefetched")
	obsPrefetchHits    = obs.C("harness.schedule_prefetch_hits")
	obsCellsRecovered  = obs.C("harness.cells_recovered")
	obsCellsRetried    = obs.C("harness.cells_retried")
	obsCellsResumed    = obs.C("harness.cells_resumed")
)

// faultScheduleBuild fires inside the shared schedule-cache compute, once per
// repetition, keyed by the spec-derived schedule seed — so which repetition
// fails under a probability trigger is invariant across worker counts and
// across the prefetcher racing a cell to the same cache entry.
var faultScheduleBuild = fault.NewSite("harness.schedule-build")

// RunOptions tunes execution only; nothing here may change the results.
type RunOptions struct {
	// Workers bounds the number of cells executed concurrently; default
	// NumCPU (capped by the cell count).
	Workers int
	// CoreWorkers bounds core.Run's per-user pool inside each cell; default
	// max(1, NumCPU/Workers) so the two layers together roughly fill the
	// machine without gross oversubscription.
	CoreWorkers int
	// ShardSize streams each cell's sweep in batches of roughly this many
	// users (core.Config.ShardUsers), bounding the sweep's live per-chunk
	// reduction state to one shard. Zero means one batch of all users.
	// Execution-only, like Workers: the manifest bytes are identical for
	// any shard size.
	ShardSize int
	// NoPrefetch disables the cell prefetcher: by default a single
	// background goroutine warms the dataset and schedule caches of the
	// next unclaimed cell while the workers sweep the current ones, staying
	// at most one cell ahead (the memory bound: one extra dataset + one
	// schedule set in flight). Every warmed value is a pure function of the
	// spec keys and lands in the same shared lazy caches the workers read,
	// so manifests — including the ScheduleCacheHits count, which only ever
	// counts cell-to-cell reuse — are byte-identical with the prefetcher on
	// or off.
	NoPrefetch bool
	// Progress, when set, is called after each finished cell.
	Progress func(done, total int, cell CellSpec, elapsed time.Duration)
	// Telemetry, when set, collects per-cell phase breakdowns (sweep
	// worker busy time included) and lifecycle events (see internal/obs).
	// Execution-only, like Workers: manifests are byte-identical with or
	// without it (pinned by TestTelemetryDoesNotPerturbManifest).
	Telemetry *obs.Collector
	// MaxRetries is how many times a failed cell attempt (error, panic, or
	// timeout) is rerun before the failure is reported. Cell results are pure
	// functions of (spec, seed), so retries cannot change manifest bytes —
	// they only matter under transient faults (injected or environmental).
	MaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt and is capped at 5s. Zero means 50ms.
	RetryBackoff time.Duration
	// CellTimeout bounds one cell attempt; on expiry the attempt counts as
	// failed (and is retried under MaxRetries). The timed-out attempt's
	// goroutine is abandoned — core has no cancellation plumbing — and its
	// eventual result is discarded. Zero disables the watchdog.
	CellTimeout time.Duration
	// CheckpointPath, when set, appends every completed cell result to a
	// crash-safe JSONL journal at this path (fsync per cell). A later run
	// over the same spec with Resume set skips the journaled cells.
	CheckpointPath string
	// Resume restores completed cells from the CheckpointPath journal
	// instead of recomputing them. The journal's spec hash must match; the
	// resumed manifest is byte-identical to an uninterrupted run.
	Resume bool
}

func (o RunOptions) fill(cells int) RunOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if cells > 0 && o.Workers > cells {
		o.Workers = cells
	}
	if o.CoreWorkers <= 0 {
		// Ceil division so that when the cell count caps Workers below the
		// core count, the freed cores flow to the per-cell pools instead of
		// idling: 2 cells on a 7-core box get 4 core workers each (floor
		// would leave a core dark), and the large scale — 2 cells on an
		// N-core box — fans its per-user sweeps and its phase-2 schedule
		// builds out to ~N/2 workers per cell. Mild oversubscription when
		// the division is uneven is goroutine-cheap; idle cores are not.
		o.CoreWorkers = (runtime.NumCPU() + o.Workers - 1) / o.Workers
	}
	// Overlap needs a spare core: on a single-CPU machine the prefetcher
	// only steals cycles from the sweep and holds an extra dataset + table
	// live, so it stays off. Execution-only, like Workers — results are
	// byte-identical either way (pinned by TestRunByteIdenticalWithPrefetch).
	if runtime.NumCPU() == 1 {
		o.NoPrefetch = true
	}
	return o
}

// lazy computes a value at most once; concurrent callers share the result.
// get reports whether its caller ran the compute, so telemetry can tell the
// cell that paid for a shared value from the cells that waited on it.
// Failures are NOT memoized: a compute that errors (an injected fault, say)
// leaves the slot empty, so a retried cell reruns the pure computation
// instead of replaying a stale error. The deferred unlock keeps the slot
// usable when compute panics — the panic unwinds to the cell isolation
// boundary, and the next caller recomputes.
type lazy[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

func (l *lazy[T]) get(compute func() (T, error)) (v T, computed bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return l.val, false, nil
	}
	if v, err = compute(); err != nil {
		var zero T
		return zero, true, err
	}
	l.val, l.done = v, true
	return v, true, nil
}

// schedEntry is one (dataset, model) schedule-cache slot. Beyond the lazy
// computation it tracks who touched it: requested flips when the first
// *cell* (never the prefetcher) asks for it, so the schedule_cache_hits
// counter measures cell-to-cell reuse regardless of whether the prefetcher
// populated the entry first; prefetched marks entries the prefetcher warmed,
// feeding the execution-only schedule_prefetch_hits counter.
type schedEntry struct {
	lazy[[]*onlinetime.Table]
	requested  atomic.Bool
	prefetched atomic.Bool
}

// caches shares datasets and schedule computations across the cells of one
// run. Keys are value types of the spec, so two cells hit the same entry
// exactly when their results are defined to coincide.
type caches struct {
	mu        sync.Mutex
	datasets  map[string]*lazy[*trace.Dataset]
	schedules map[string]*schedEntry
	rings     map[string]*lazy[*dht.Ring]
}

func newCaches() *caches {
	return &caches{
		datasets:  make(map[string]*lazy[*trace.Dataset]),
		schedules: make(map[string]*schedEntry),
		rings:     make(map[string]*lazy[*dht.Ring]),
	}
}

func (c *caches) datasetEntry(key string) *lazy[*trace.Dataset] {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.datasets[key]
	if !ok {
		e = &lazy[*trace.Dataset]{}
		c.datasets[key] = e
	}
	return e
}

// ringFor computes (or fetches) the ring shared by every DHT cell over the
// given dataset. The ring is a pure function of (user count, ring bits) —
// like the dataset, it is infrastructure, independent of the root seed — so
// two cells over the same dataset always route on the same ring. computed
// reports whether this call built the ring (see lazy.get).
func (c *caches) ringFor(d DatasetSpec, bits int, ds *trace.Dataset) (ring *dht.Ring, computed bool, err error) {
	key := fmt.Sprintf("%s|%d", d.key(), bits)
	c.mu.Lock()
	e, ok := c.rings[key]
	if !ok {
		e = &lazy[*dht.Ring]{}
		c.rings[key] = e
	}
	c.mu.Unlock()
	return e.get(func() (*dht.Ring, error) {
		return dht.BuildRing(ds.NumUsers(), dht.Config{Bits: bits})
	})
}

func (c *caches) scheduleEntry(key string) *schedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.schedules[key]
	if !ok {
		e = &schedEntry{}
		c.schedules[key] = e
	}
	return e
}

// buildDataset synthesizes the dataset a DatasetSpec describes through the
// shared calibrated-construction path (same as dosn.Facebook/Twitter). The
// spec's zero-value defaults (seed, activity filter) are resolved by
// normalized(), matching the identity used for caching and seeds.
func buildDataset(d DatasetSpec) (*trace.Dataset, error) {
	n := d.normalized()
	return trace.SynthesizeCalibrated(n.Name, n.Users, n.Seed, n.MinActivity)
}

// schedulesFor computes (or fetches) the per-repetition schedule tables
// shared by every cell with the given (dataset, model) coordinates. Each
// table is densified exactly once per (dataset, model, rep) for the whole
// run — cells sharing the coordinates reuse the arena read-only, with no
// per-cell conversion. buildWorkers is the filling cell's core budget: the
// parallel phase-2 row construction may use it freely because worker counts
// never reach the table bytes. hit reports whether another *cell* already
// requested the entry — cell-to-cell reuse, feeding execution-only telemetry
// (an entry the prefetcher warmed first is not a hit); computed reports
// whether this call built the tables (see lazy.get). The manifest's
// ScheduleCacheHits is NOT this measured count but the spec-derived
// expectedScheduleHits: under resume or retry the measured count shifts
// (restored cells never request; retried cells request twice) while the
// manifest bytes must not.
func (c *caches) schedulesFor(spec MatrixSpec, d DatasetSpec, m ModelSpec, ds *trace.Dataset, model onlinetime.Model, buildWorkers int) (tables []*onlinetime.Table, hit, computed bool, err error) {
	entry := c.scheduleEntry(d.key() + "|" + m.key())
	if hit = entry.requested.Swap(true); hit {
		obsSchedHits.Inc()
	} else if entry.prefetched.Load() {
		// Execution-only: first cell to need these schedules found them
		// already warmed by the prefetcher.
		obsPrefetchHits.Inc()
	}
	tables, computed, err = entry.get(c.buildSchedules(spec, d, m, ds, model, buildWorkers))
	return tables, hit, computed, err
}

// buildSchedules returns the compute closure of one schedule-cache entry:
// every repetition's table from the spec-derived seeds. Shared by the cell
// path and the prefetcher so both populate an entry with the identical pure
// function.
func (c *caches) buildSchedules(spec MatrixSpec, d DatasetSpec, m ModelSpec, ds *trace.Dataset, model onlinetime.Model, buildWorkers int) func() ([]*onlinetime.Table, error) {
	return func() ([]*onlinetime.Table, error) {
		out := make([]*onlinetime.Table, spec.Repeats)
		for rep := range out {
			if err := faultScheduleBuild.InjectSeeded(spec.scheduleSeed(d, m, rep)); err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(spec.scheduleSeed(d, m, rep)))
			out[rep] = model.BuildTable(ds, rng, buildWorkers)
		}
		return out, nil
	}
}

// warmCell is the prefetcher's work: populate the dataset and schedule
// caches for one cell, exactly as the cell's worker would, without touching
// the cache-hit accounting. Errors are deliberately dropped — the owning
// cell will rerun the same lazy computation and surface the identical error
// with its cell context attached. Panics are dropped for the same reason:
// the prefetcher is purely advisory, and a panicking warm compute (an
// injected fault, say) must not kill the process when the owning cell would
// reproduce and report the identical failure inside its isolation boundary.
func (c *caches) warmCell(spec MatrixSpec, cell CellSpec, buildWorkers int) {
	defer func() {
		//dosn:recover advisory prefetch boundary: the owning cell reruns the same pure compute and reports the failure with cell context
		if r := recover(); r != nil {
			_ = r
		}
	}()
	ds, _, err := c.datasetEntry(cell.Dataset.key()).get(func() (*trace.Dataset, error) {
		return buildDataset(cell.Dataset)
	})
	if err != nil {
		return
	}
	if !cell.isFriend() {
		_, _, _ = c.ringFor(cell.Dataset, cell.RingBits, ds)
	}
	model, err := cell.Model.Model()
	if err != nil {
		return
	}
	entry := c.scheduleEntry(cell.Dataset.key() + "|" + cell.Model.key())
	entry.prefetched.Store(true)
	_, _, _ = entry.get(c.buildSchedules(spec, cell.Dataset, cell.Model, ds, model, buildWorkers))
	obsCellsPrefetched.Inc()
}

// prefetch overlaps next-cell synthesis with the running cells' sweeps. It
// stays at most ONE cell ahead of the highest index any worker has claimed,
// so peak memory grows by a single extra dataset+schedule set regardless of
// matrix size. claims carries every claimed index and is closed once the
// workers drain, which bounds the goroutine's lifetime to Run's. restored
// cells (checkpoint resume) are skipped: their results are already in hand,
// so warming their caches would only burn memory ahead of need.
func prefetch(spec MatrixSpec, cells []CellSpec, opts RunOptions, shared *caches, restored map[int]CellResult, claims <-chan int) {
	maxClaimed := -1
	pf := 0 // next cell index eligible for warming
	for i := range claims {
		if i > maxClaimed {
			maxClaimed = i
		}
		if pf <= maxClaimed {
			// Workers already own everything up to maxClaimed; warming
			// those would only duplicate waiting.
			pf = maxClaimed + 1
		}
		if pf == maxClaimed+1 && pf < len(cells) {
			if _, ok := restored[pf]; !ok {
				shared.warmCell(spec, cells[pf], opts.CoreWorkers)
			}
			pf++
		}
	}
}

// Run executes every cell of the matrix and returns the assembled manifest.
// The manifest depends only on (spec, root seed): worker counts, scheduling
// and cache state never leak into the output bytes.
func Run(spec MatrixSpec, opts RunOptions) (*RunManifest, error) {
	spec = spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("harness: spec enumerates no cells")
	}
	opts = opts.fill(len(cells))

	policies := make([]replica.Policy, len(spec.Policies))
	for i, name := range spec.Policies {
		p, err := policyByName(name)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}

	opts.Telemetry.SetRun(len(cells), opts.Workers, opts.CoreWorkers, opts.ShardSize)
	shared := newCaches()
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	var cp *checkpoint
	restored := map[int]CellResult{}
	if opts.CheckpointPath != "" {
		var err error
		cp, restored, err = openCheckpoint(opts.CheckpointPath, spec, cells, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
	}
	var next atomic.Int64
	next.Store(-1)
	// claims feeds the prefetcher: each claimed cell index, buffered so
	// workers never block on it. Closed after the workers drain.
	var claims chan int
	if !opts.NoPrefetch {
		claims = make(chan int, len(cells)+opts.Workers)
	}
	var done atomic.Int64
	var mu sync.Mutex // serializes Progress callbacks
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cells) {
					return
				}
				if claims != nil {
					claims <- i
				}
				start := obs.StartWatch()
				if res, ok := restored[i]; ok {
					// Checkpoint restore: the journaled result is the same
					// pure function of (spec, seed) a recompute would
					// produce, so slotting it in preserves manifest bytes.
					obsCellsResumed.Inc()
					results[i] = res
				} else {
					obsCellsStarted.Inc()
					co := opts.Telemetry.StartCell(cells[i].Key(), w)
					results[i], errs[i] = runCellGuarded(spec, cells[i], policies, opts, shared, co)
					co.Done()
					obsCellsDone.Inc()
					if errs[i] == nil && cp != nil {
						errs[i] = cp.append(i, cells[i].canonicalKey(), results[i])
					}
				}
				if opts.Progress != nil {
					mu.Lock()
					opts.Progress(int(done.Add(1)), len(cells), cells[i], start.Elapsed())
					mu.Unlock()
				} else {
					done.Add(1)
				}
			}
		}(w)
	}
	var prefetchWG sync.WaitGroup
	if claims != nil {
		prefetchWG.Add(1)
		go func() {
			defer prefetchWG.Done()
			prefetch(spec, cells, opts, shared, restored, claims)
		}()
	}
	wg.Wait()
	if claims != nil {
		close(claims)
		prefetchWG.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cells[i].Key(), err)
		}
	}
	return &RunManifest{
		Version:           ManifestVersion,
		Spec:              spec,
		ScheduleCacheHits: expectedScheduleHits(cells),
		Cells:             results,
	}, nil
}

// expectedScheduleHits is the manifest's ScheduleCacheHits: cells minus
// distinct (dataset, model) pairs. It is derived from the spec rather than
// measured because the measured count is an execution artifact — a resumed
// run requests fewer entries (restored cells never ask) and a retried cell
// can request twice — while manifest bytes must depend on (spec, seed)
// alone. For every uninterrupted, fault-free run the two are equal: each
// distinct pair misses exactly once and every other request hits.
func expectedScheduleHits(cells []CellSpec) int {
	distinct := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		distinct[c.Dataset.key()+"|"+c.Model.key()] = struct{}{}
	}
	return len(cells) - len(distinct)
}

// runCellGuarded is the crash-safety wrapper around one cell: panic
// isolation (runCellRecovered), an optional per-attempt watchdog
// (runCellAttempt), and bounded retries with capped exponential backoff.
// Retrying is sound because cell results are pure functions of (spec, seed)
// and the shared caches never memoize failures.
func runCellGuarded(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := runCellAttempt(spec, cell, policies, opts, shared, co)
		if err == nil || attempt >= opts.MaxRetries {
			return res, err
		}
		obsCellsRetried.Inc()
		time.Sleep(retryBackoff(opts.RetryBackoff, attempt))
	}
}

// retryBackoff returns the delay before the retry following failed attempt
// `attempt` (0-based): base<<attempt, capped at 5s.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	const ceiling = 5 * time.Second
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if attempt > 20 { // base is at least 50ms; 50ms<<20 already overshoots the cap
		return ceiling
	}
	if d := base << uint(attempt); d > 0 && d < ceiling {
		return d
	}
	return ceiling
}

// runCellAttempt runs one isolated attempt, racing it against the watchdog
// when CellTimeout is set. A timed-out attempt's goroutine is abandoned (core
// has no cancellation plumbing); it eventually finishes into the buffered
// channel and its result is discarded. The shared caches stay coherent under
// abandonment — lazy computes are pure and complete under their entry lock —
// so a retry or a sibling cell reusing an entry is safe.
func runCellAttempt(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	if opts.CellTimeout <= 0 {
		return runCellRecovered(spec, cell, policies, opts, shared, co)
	}
	type outcome struct {
		res CellResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, e := runCellRecovered(spec, cell, policies, opts, shared, co)
		ch <- outcome{r, e}
	}()
	watchdog := time.NewTimer(opts.CellTimeout)
	defer watchdog.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-watchdog.C:
		return CellResult{}, fmt.Errorf("harness: cell attempt exceeded %v timeout", opts.CellTimeout)
	}
}

// runCellRecovered is the cell isolation boundary: a panic anywhere in the
// cell's synchronous call tree (core's sweep workers carry their own
// boundary) becomes this cell's error instead of killing the process, so
// sibling cells finish and the checkpoint journal stays intact.
func runCellRecovered(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (res CellResult, err error) {
	defer func() {
		//dosn:recover cell isolation boundary: a panicking cell (injected fault or real bug) becomes a CellResult error; siblings and the journal survive
		if r := recover(); r != nil {
			obsCellsRecovered.Inc()
			res = CellResult{}
			err = fault.PanicError("harness: cell "+cell.Key(), r, debug.Stack())
		}
	}()
	return runCell(spec, cell, policies, opts, shared, co)
}

// runCell executes one cell's replication-degree sweep. FriendReplica cells
// sweep the spec's policy list; DHT cells sweep their architecture's
// placement over the dataset's shared ring. Only execution knobs are read
// from opts (CoreWorkers, ShardSize); the cell result depends on (spec,
// cell) alone. co (nil when telemetry is off) receives the phase table:
// synthesize → ring-build → schedule-build → sweep, with core recording the
// sweep/shards, sweep/reduce and sweep/worker records inside the sweep. The
// three shared-cache phases take their plain name only in the cell that
// ran the computation; see cachePhase.
func runCell(spec MatrixSpec, cell CellSpec, policies []replica.Policy, opts RunOptions, shared *caches, co *obs.CellObs) (CellResult, error) {
	w := obs.StartWatch()
	ds, computed, err := shared.datasetEntry(cell.Dataset.key()).get(func() (*trace.Dataset, error) {
		return buildDataset(cell.Dataset)
	})
	co.Phase(cachePhase("synthesize", computed), w.Elapsed())
	if err != nil {
		return CellResult{}, err
	}
	if !cell.isFriend() {
		w = obs.StartWatch()
		ring, computed, err := shared.ringFor(cell.Dataset, cell.RingBits, ds)
		co.Phase(cachePhase("ring-build", computed), w.Elapsed())
		if err != nil {
			return CellResult{}, err
		}
		arch, err := dht.NewArchitecture(cell.Arch, ring, ds.Graph, nil)
		if err != nil {
			return CellResult{}, err
		}
		policies = arch.Policies()
	}
	model, err := cell.Model.Model()
	if err != nil {
		return CellResult{}, err
	}
	w = obs.StartWatch()
	schedules, hit, computed, err := shared.schedulesFor(spec, cell.Dataset, cell.Model, ds, model, opts.CoreWorkers)
	co.Phase(cachePhase("schedule-build", computed), w.Elapsed())
	if err != nil {
		return CellResult{}, err
	}
	if hit {
		co.MarkScheduleCacheHit()
	}
	seed := spec.CellSeed(cell)
	w = obs.StartWatch()
	res, err := core.Run(core.Config{
		Dataset:    ds,
		Model:      model,
		Mode:       cell.Mode,
		Policies:   policies,
		MaxDegree:  spec.MaxDegree,
		UserDegree: spec.UserDegree,
		Repeats:    spec.Repeats,
		Seed:       seed,
		Workers:    opts.CoreWorkers,
		ShardUsers: opts.ShardSize,
		Schedules:  schedules,
		Obs:        co,
	})
	co.Phase("sweep", w.Elapsed())
	if err != nil {
		return CellResult{}, err
	}
	return newCellResult(cell, seed, res), nil
}

// cachePhase names a shared-cache phase record: name in the cell whose call
// ran the computation, name+"/wait" in a cell that blocked on — or simply
// reused — an entry another cell or the prefetcher computed, so waiting is
// never charged as compute.
func cachePhase(name string, computed bool) string {
	if computed {
		return name
	}
	return name + "/wait"
}
