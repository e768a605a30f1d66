// Package core implements the paper's trace-replay simulator: it computes
// profile replication points for every user under a replica-placement policy
// and an online-time model, replays the activity trace, and measures the
// efficiency metrics of §II-C as the replication degree varies (§IV-B).
//
// The engine exploits the fact that all three policies are incremental (the
// selection for budget r is a prefix of the selection for budget r+1), so a
// full 0..MaxDegree sweep costs one policy run per user. A bounded worker
// pool processes fixed index-ordered user chunks into per-chunk Welford
// grids that are merged in chunk order, so sweeps over tens of thousands of
// users run in seconds and results are bit-identical regardless of worker
// count or goroutine scheduling.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dosn/internal/fault"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/stats"
	"dosn/internal/trace"
)

// Execution-only telemetry. Counters are single atomic adds at chunk or
// seed granularity — cheap enough to stay on unconditionally — and their
// values are never read back on this side of the obs boundary, so results
// stay a pure function of (spec, seed).
var (
	obsChunksSwept = obs.C("core.sweep_chunks")
	obsUsersSwept  = obs.C("core.sweep_users")
	obsRNGSeeded   = obs.C("core.rng_seeded")
)

// Failpoints on the sweep's fragile seams (see internal/fault): disabled
// they are one atomic load each, armed they let chaos tests kill a shard
// dispatch, a worker mid-chunk, or a reduce step deterministically.
var (
	faultSweepShard = fault.NewSite("core.sweep-shard")
	faultSweepChunk = fault.NewSite("core.sweep-chunk")
	faultReduce     = fault.NewSite("core.reduce")
)

// Metric identifies one of the efficiency metrics a sweep records.
type Metric int

const (
	// MetricAvailability is the fraction of the day the profile is online.
	MetricAvailability Metric = iota + 1
	// MetricAoDTime is availability-on-demand-time.
	MetricAoDTime
	// MetricAoDActivity is availability-on-demand-activity.
	MetricAoDActivity
	// MetricDelayHours is the worst-case update-propagation delay in hours.
	MetricDelayHours
	// MetricEffectiveReplicas is the number of replicas the policy actually
	// used (ConRep may use fewer than the budget; paper §V-A1).
	MetricEffectiveReplicas
)

func (m Metric) String() string {
	switch m {
	case MetricAvailability:
		return "availability"
	case MetricAoDTime:
		return "availability-on-demand-time"
	case MetricAoDActivity:
		return "availability-on-demand-activity"
	case MetricDelayHours:
		return "delay (in hours)"
	case MetricEffectiveReplicas:
		return "effective replicas"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Config parameterizes one replication-degree sweep.
type Config struct {
	// Dataset is the trace to replay.
	Dataset *trace.Dataset
	// Model approximates user online times.
	Model onlinetime.Model
	// Mode selects ConRep or UnconRep placement.
	Mode replica.Mode
	// Policies are evaluated side by side; defaults to the paper's three.
	Policies []replica.Policy
	// MaxDegree is the largest replication degree; the sweep covers
	// 0..MaxDegree. The paper uses 10.
	MaxDegree int
	// UserDegree restricts the user population to users with exactly this
	// many friends/followers (the paper uses degree 10, the modal degree of
	// both datasets). Ignored when Users is set. Zero selects the modal
	// degree >= 5 automatically.
	UserDegree int
	// Users explicitly lists the users to average over.
	Users []socialgraph.UserID
	// Repeats re-runs the experiment with fresh randomness and averages,
	// as the paper does (5×) for randomized configurations. Default 1.
	Repeats int
	// Seed drives all randomness in the sweep.
	Seed int64
	// Workers bounds the worker pool; default runtime.NumCPU(). The result
	// does not depend on the worker count.
	Workers int
	// ShardUsers streams the sweep in batches of roughly this many users
	// (rounded up to whole sweep chunks), bounding live per-chunk grid
	// memory to one batch instead of the full population. Zero or negative
	// means one batch of all users. Purely an execution knob: the chunk
	// partition and the reduction order depend only on the user list, so
	// the result bits are identical for any ShardUsers value, exactly as
	// for any Workers value.
	ShardUsers int
	// NoPipeline is ignored. Run builds and sweeps repetitions one after
	// the other; the field remains only for existing callers that set it.
	NoPipeline bool
	// Obs, when non-nil, receives execution telemetry for this sweep: per
	// batch a sweep/shards and a sweep/reduce phase record, and per worker
	// goroutine per batch a sweep/worker record of its busy time.
	// Execution-only, exactly like Workers and ShardUsers: a nil or non-nil
	// Obs never changes the result bits.
	Obs *obs.CellObs
	// Schedules optionally supplies precomputed per-repetition schedule
	// tables (Schedules[rep], user-indexed arena rows). When set for a
	// repetition, the engine uses it instead of calling Model.BuildTable,
	// which lets callers densify each (dataset, model, rep) schedule once
	// and share it across every sweep with those coordinates — see
	// internal/harness. Repetitions beyond len(Schedules) fall back to
	// Model.BuildTable.
	Schedules []*onlinetime.Table
}

// Errors returned by Run.
var (
	ErrNoDataset = errors.New("core: config needs a dataset")
	ErrNoUsers   = errors.New("core: no users match the requested degree")
)

func (c *Config) fill() error {
	if c.Dataset == nil {
		return ErrNoDataset
	}
	if c.Model == nil {
		c.Model = onlinetime.Sporadic{}
	}
	if c.Mode == 0 {
		c.Mode = replica.ConRep
	}
	if len(c.Policies) == 0 {
		c.Policies = replica.DefaultPolicies()
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 10
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	for rep, t := range c.Schedules {
		if t != nil && t.NumUsers() < c.Dataset.NumUsers() {
			return fmt.Errorf("core: Schedules[%d] covers %d users, dataset has %d", rep, t.NumUsers(), c.Dataset.NumUsers())
		}
	}
	if len(c.Users) == 0 {
		deg := c.UserDegree
		if deg <= 0 {
			d, ok := c.Dataset.Graph.ModalDegree(5)
			if !ok {
				return ErrNoUsers
			}
			deg = d
		}
		c.Users = c.Dataset.Graph.UsersWithDegree(deg)
		if len(c.Users) == 0 {
			return fmt.Errorf("%w: degree %d", ErrNoUsers, deg)
		}
	}
	return nil
}

// Cell is one aggregated data point of a sweep: a (policy, degree) pair.
type Cell struct {
	Availability stats.Welford
	AoDTime      stats.Welford
	AoDActivity  stats.Welford
	DelayHours   stats.Welford
	Effective    stats.Welford
}

func (c *Cell) merge(o *Cell) {
	c.Availability.Merge(o.Availability)
	c.AoDTime.Merge(o.AoDTime)
	c.AoDActivity.Merge(o.AoDActivity)
	c.DelayHours.Merge(o.DelayHours)
	c.Effective.Merge(o.Effective)
}

// value returns the mean of the requested metric.
func (c *Cell) value(m Metric) float64 {
	switch m {
	case MetricAvailability:
		return c.Availability.Mean()
	case MetricAoDTime:
		return c.AoDTime.Mean()
	case MetricAoDActivity:
		return c.AoDActivity.Mean()
	case MetricDelayHours:
		return c.DelayHours.Mean()
	case MetricEffectiveReplicas:
		return c.Effective.Mean()
	default:
		return 0
	}
}

// Result is the outcome of a sweep: one Cell per (policy, degree).
type Result struct {
	DatasetName string
	ModelName   string
	Mode        replica.Mode
	Degrees     []int    // 0..MaxDegree
	Policies    []string // policy names, plot order
	Users       int      // users averaged over
	Repeats     int
	Cells       [][]Cell // [policy][degreeIndex]
}

// Value returns the mean of metric m for the given policy index and degree
// index.
func (r *Result) Value(policy, degreeIdx int, m Metric) float64 {
	return r.Cells[policy][degreeIdx].value(m)
}

// Run executes the sweep described by cfg: for each repetition in turn it
// takes the supplied schedule table or builds one, sweeps it, and merges the
// repetition's grid into the result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ds := cfg.Dataset
	res := &Result{
		DatasetName: ds.Name,
		ModelName:   cfg.Model.Name(),
		Mode:        cfg.Mode,
		Users:       len(cfg.Users),
		Repeats:     cfg.Repeats,
	}
	for d := 0; d <= cfg.MaxDegree; d++ {
		res.Degrees = append(res.Degrees, d)
	}
	for _, p := range cfg.Policies {
		res.Policies = append(res.Policies, p.Name())
	}
	res.Cells = newGrid(len(cfg.Policies), cfg.MaxDegree+1)

	for rep := 0; rep < cfg.Repeats; rep++ {
		table := cfg.providedTable(rep)
		if table == nil {
			table = cfg.buildTable(ds, rep)
		}
		grid, err := sweepOnce(cfg, table, rep)
		if err != nil {
			return nil, err
		}
		mergeGrids(res.Cells, grid)
	}
	return res, nil
}

// providedTable returns the caller-supplied schedule table for a repetition,
// or nil when the sweep must build its own.
func (c *Config) providedTable(rep int) *onlinetime.Table {
	if rep < len(c.Schedules) {
		return c.Schedules[rep]
	}
	return nil
}

// buildTable builds the schedule table of one repetition from the
// repetition's independent RNG stream: a pure function of (dataset, model,
// seed, rep).
func (c *Config) buildTable(ds *trace.Dataset, rep int) *onlinetime.Table {
	return c.Model.BuildTable(ds, rand.New(rand.NewSource(mix(c.Seed, int64(rep)))), c.Workers)
}

func newGrid(policies, degrees int) [][]Cell {
	g := make([][]Cell, policies)
	for i := range g {
		g[i] = make([]Cell, degrees)
	}
	return g
}

func mergeGrids(dst, src [][]Cell) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j].merge(&src[i][j])
		}
	}
}

// sweepChunkSize fixes the user-chunk granularity of the parallel sweep.
// Chunk boundaries depend only on the user list, never on the worker count,
// which is what keeps the reduction order — and the result bits — stable.
// The size balances scheduling overhead against parallelism: the default
// analysis population (users at one degree) is often only a few hundred
// users, and a 16-user chunk still spreads that over every core.
const sweepChunkSize = 16

// sweepOnce processes all users for one repetition with a worker pool,
// streaming the fixed global chunk sequence through bounded shard batches.
// Workers claim fixed index-ordered chunks of users and reduce each chunk's
// samples in user order into a per-chunk grid; after each batch the chunk
// grids are merged sequentially in chunk order before the next batch starts.
// The chunk partition, the per-chunk accumulation order, and the global
// chunk-order merge are all fixed by the user list alone — batches only
// decide how many chunk grids are alive at once — so the result is
// bit-identical regardless of worker count, shard size, or goroutine
// scheduling. Live memory is O(batch chunks × policies × degrees): the full
// population (ShardUsers <= 0) costs a few MB at paper scale, and a huge-
// tier run with ShardUsers set holds only its shard's grids.
//
// The repetition's schedule table is shared read-only: its arena rows are
// the bitmap slice every worker reads, with no densification step on this
// path (the table was dense from construction). Every worker owns one
// sweepScratch, so the per-user metric accumulation allocates nothing
// beyond the policy selections.
//
// A worker that panics (a policy bug, an injected fault) is recovered at
// its goroutine boundary and surfaces as this sweep's error; the remaining
// workers drain their claimed chunks and stop.
//
//dosn:hotpath
func sweepOnce(cfg Config, table *onlinetime.Table, rep int) ([][]Cell, error) {
	bitmaps := table.Bitmaps()
	nChunks := (len(cfg.Users) + sweepChunkSize - 1) / sweepChunkSize
	batchChunks := nChunks
	if cfg.ShardUsers > 0 {
		batchChunks = max(1, (cfg.ShardUsers+sweepChunkSize-1)/sweepChunkSize)
	}

	grid := newGrid(len(cfg.Policies), cfg.MaxDegree+1)
	chunkGrids := make([][][]Cell, min(batchChunks, nChunks))
	for cs := 0; cs < nChunks; cs += batchChunks {
		ce := min(cs+batchChunks, nChunks)
		if err := faultSweepShard.InjectSeeded(mix(cfg.Seed, int64(rep), int64(cs))); err != nil {
			return nil, err
		}
		b := sweepBatch{
			cfg:     cfg,
			bitmaps: bitmaps,
			rep:     rep,
			cs:      cs,
			ce:      ce,
			batch:   chunkGrids[:ce-cs],
		}
		b.next.Store(int64(cs) - 1)
		var sw obs.Watch
		if cfg.Obs != nil {
			sw = obs.StartWatch()
		}
		// A batch with fewer chunks than workers needs only one goroutine
		// per chunk: extra workers would claim nothing and exit, but the
		// sweep spawns a pool per batch, so at huge-tier shard counts (or
		// tiny per-degree populations) the idle spawns add up.
		for w := 0; w < min(cfg.Workers, ce-cs); w++ {
			b.wg.Add(1)
			go b.run()
		}
		b.wg.Wait()
		if cfg.Obs != nil {
			cfg.Obs.Phase("sweep/shards", sw.Elapsed())
			sw = obs.StartWatch()
		}
		if err := b.takeErr(); err != nil {
			return nil, err
		}
		if err := faultReduce.InjectSeeded(mix(cfg.Seed, int64(rep), int64(cs))); err != nil {
			return nil, err
		}

		for i, g := range b.batch {
			mergeGrids(grid, g)
			b.batch[i] = nil // grid is collectible as soon as it is merged
		}
		if cfg.Obs != nil {
			cfg.Obs.Phase("sweep/reduce", sw.Elapsed())
		}
	}
	return grid, nil
}

// sweepBatch is the shared state of one chunk batch's worker pool. The
// workers run the named work method rather than a closure: the hot sweep
// spawns one goroutine per worker per batch, and a capturing closure would
// heap-allocate its environment each time (and hide which state is shared).
type sweepBatch struct {
	cfg     Config
	bitmaps []interval.Bitmap
	rep     int
	cs, ce  int
	batch   [][][]Cell
	next    atomic.Int64
	wg      sync.WaitGroup

	// failed flags a worker failure so the remaining workers stop claiming
	// chunks; err keeps the first failure (under errMu) for sweepOnce.
	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// setErr records the first worker failure and tells the other workers to
// stop. Later failures are dropped: with one failure the whole repetition
// is already void.
func (b *sweepBatch) setErr(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
	b.failed.Store(true)
}

// takeErr returns the first worker failure, if any. Called after wg.Wait,
// so no worker is concurrently writing.
func (b *sweepBatch) takeErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// run wraps one worker's chunk loop with busy-time accounting: when the
// sweep carries a telemetry sink, each worker records how long it spent in
// its loop as one sweep/worker phase call, which is what exposes shard
// imbalance (the phase's max_ms against its mean).
// The watch reading goes only into obs — results never see it.
//
// It is also the sweep's panic isolation boundary: a panic anywhere in the
// chunk loop — a policy bug, a metric edge case, an injected fault — is
// recovered here and converted into the batch's error, so a crashing worker
// fails its cell instead of killing the process (the busy-time accounting
// still runs; the partially filled chunk grid is discarded with the batch).
func (b *sweepBatch) run() {
	defer b.wg.Done()
	var busy obs.Watch
	if b.cfg.Obs != nil {
		busy = obs.StartWatch()
	}
	func() {
		defer func() {
			//dosn:recover sweep-worker boundary: a panicking chunk becomes the batch's error instead of killing the process
			if r := recover(); r != nil {
				b.setErr(fault.PanicError("core: sweep worker", r, debug.Stack()))
			}
		}()
		b.work()
	}()
	if b.cfg.Obs != nil {
		b.cfg.Obs.Phase("sweep/worker", busy.Elapsed())
	}
}

// work is one worker's loop: claim fixed index-ordered chunks and reduce
// each chunk's users in order into that chunk's grid. Chunk claiming is the
// only cross-worker coordination; everything else is owned state. The
// chunk counters are single atomic adds per 16-user chunk — allocation-free
// and cheap enough to stay on unconditionally.
//
//dosn:hotpath
func (b *sweepBatch) work() {
	var scratch sweepScratch
	for {
		ci := int(b.next.Add(1))
		if ci >= b.ce || b.failed.Load() {
			return
		}
		if err := faultSweepChunk.InjectSeeded(mix(b.cfg.Seed, int64(b.rep), int64(ci))); err != nil {
			b.setErr(err)
			return
		}
		lo := ci * sweepChunkSize
		hi := min(lo+sweepChunkSize, len(b.cfg.Users))
		g := newGrid(len(b.cfg.Policies), b.cfg.MaxDegree+1)
		for _, u := range b.cfg.Users[lo:hi] {
			sweepUser(b.cfg, b.bitmaps, b.rep, u, g, &scratch)
		}
		b.batch[ci-b.cs] = g
		obsChunksSwept.Inc()
		obsUsersSwept.Add(int64(hi - lo))
	}
}

// sweepScratch holds one worker's reusable buffers: the incrementally grown
// availability bitmap, the per-user demand bitmap, the received-activity
// minutes, the interaction-count buffers, and the delay calculator's
// gap/distance matrices. Reusing it across users removes every per-user
// metric allocation from the sweep hot path.
type sweepScratch struct {
	avail      interval.Bitmap
	demand     interval.Bitmap
	actMinutes []int
	counts     trace.CountScratch
	delay      metrics.DelayCalc
	aod        metrics.AoDTracker
}

// sweepUser evaluates every policy and every replication degree for one
// user, accumulating into grid. All interval arithmetic runs on the dense
// bitmap representation; results are bit-identical to the sorted-interval
// path it replaced (same integer measures, same float divisions). Inputs a
// policy declares it will ignore (replica.Traits) are not prepared: only
// MostActive pays for the interaction counts and only randomized policies
// pay for RNG seeding.
//
// The degree loop is a one-pass incremental kernel: each step grows the
// availability bitmap and reads back its measure and its demand overlap from
// the single fused word traversal (interval.OrWithOverlapCount), the
// AoD-activity hit count advances only by the newly set bits
// (metrics.AoDTracker), and a degree that adds no replica (budget beyond the
// selection) or no new minute reuses the previous step's integers outright.
// Every reused or incrementally maintained quantity is the same integer the
// full rescan produced, so every float added to the Welford cells is
// bit-identical to the three-pass loop this replaces.
//
//dosn:hotpath
func sweepUser(cfg Config, bitmaps []interval.Bitmap, rep int, u socialgraph.UserID, grid [][]Cell, scratch *sweepScratch) {
	ds := cfg.Dataset
	friends := ds.Graph.Neighbors(u)

	needCounts := false
	for _, p := range cfg.Policies {
		needCounts = needCounts || replica.TraitsOf(p).UsesInteractions
	}

	// Demand set: union of the friends' online times (AoD-time denominator).
	scratch.demand.Clear()
	for _, f := range friends {
		if int(f) < len(bitmaps) {
			scratch.demand.OrWith(&bitmaps[f])
		}
	}
	demandLen := scratch.demand.Minutes()

	// Minutes-of-day of the received activities, pulled straight off the
	// timestamp column once per user instead of once per (policy, degree)
	// membership scan — no activity rows are materialized.
	scratch.actMinutes = scratch.actMinutes[:0]
	for _, k := range ds.ReceivedIdx(u) {
		scratch.actMinutes = append(scratch.actMinutes, ds.MinuteOfDayAt(int(k)))
	}

	// The tracker's distinct activity minutes double as the demand universe
	// of MaxAv's on-demand-activity objective (§III-A).
	scratch.aod.InitUser(scratch.actMinutes)
	in := replica.Input{
		Owner:      u,
		Candidates: friends,
		Bitmaps:    bitmaps,
		Demand:     scratch.aod.Activity(),
		Mode:       cfg.Mode,
		Budget:     cfg.MaxDegree,
	}
	if needCounts {
		in.CandidateCounts = ds.CandidateInteractionCounts(u, friends, &scratch.counts)
	}
	for pi, p := range cfg.Policies {
		var rng *rand.Rand
		if replica.TraitsOf(p).UsesRNG {
			rng = rand.New(rand.NewSource(mix(cfg.Seed, int64(rep), int64(pi), int64(u))))
			obsRNGSeeded.Inc()
		}
		seq := p.Select(in, rng)
		// Pairwise node gaps for the whole selection, computed once; each
		// degree's delay is the shortest-path diameter over a prefix.
		scratch.delay.Init(u, seq, bitmaps)
		scratch.avail.CopyFrom(&bitmaps[u]) // degree 0: only the owner stores the profile
		availLen := scratch.avail.Minutes()
		overlap := scratch.avail.OverlapMinutes(&scratch.demand)
		scratch.aod.Reset(&scratch.avail)
		aodVal, aodOK := scratch.aod.Value()
		delayHours, prevK := 0.0, 0
		for r := 0; r <= cfg.MaxDegree; r++ {
			k := r
			if k > len(seq) {
				k = len(seq)
			}
			if r > 0 && k == r { // grow the availability set incrementally
				prevLen := availLen
				availLen, overlap = scratch.avail.OrWithOverlapCount(&bitmaps[seq[k-1]], &scratch.demand)
				if availLen != prevLen {
					// New minutes were covered (equal popcount of a grown
					// union means an unchanged set): fold exactly those bits
					// into the AoD-activity hit count.
					scratch.aod.Advance(&scratch.avail)
					aodVal, aodOK = scratch.aod.Value()
				}
			}
			if k != prevK || r == 0 {
				// The node set {owner} ∪ seq[:k] changed (a subset-schedule
				// replica still adds connectivity edges), so the diameter
				// must be recomputed even when availability did not move.
				delayHours = scratch.delay.Prefix(k).Hours
				prevK = k
			}
			cell := &grid[pi][r]
			cell.Availability.Add(float64(availLen) / interval.DayMinutes)
			if demandLen > 0 {
				cell.AoDTime.Add(float64(overlap) / float64(demandLen))
			}
			if aodOK {
				cell.AoDActivity.Add(aodVal)
			}
			cell.DelayHours.Add(delayHours)
			cell.Effective.Add(float64(k))
		}
	}
}

// mix hashes the parts into a deterministic RNG seed (splitmix64-style), so
// per-user randomness is independent of worker scheduling.
func mix(parts ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		x := uint64(p) + 0x9E3779B97F4A7C15 + h
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h = x
	}
	return int64(h)
}
