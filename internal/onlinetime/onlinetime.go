// Package onlinetime implements the paper's three user online-time models
// (§IV-C). Each model approximates, from a user's activity history, the set
// of minutes of the day during which the user is online:
//
//   - Sporadic: one fixed-length session per activity, with the activity at a
//     random point inside the session (default 20 minutes, the paper's
//     conservative choice).
//   - FixedLength: one continuous daily window of fixed length (the paper
//     uses 2, 4, 6 and 8 hours), centered on the majority of the user's
//     activity times.
//   - RandomLength: like FixedLength, but each user draws his own window
//     length uniformly from [2, 8] hours.
//
// Schedules are day-cyclic; a user's schedule repeats every day, matching
// the paper's 24-hour availability accounting.
//
// # Two-phase builds
//
// The canonical product of a model is a Table: one dense day-bitmap row per
// user in a single flat arena (table.go). BuildTable constructs it in two
// phases:
//
//  1. every random value the model needs is drawn sequentially off the
//     caller's *rand.Rand, in exactly the per-user, per-activity order the
//     historical Set-emitting build consumed it — so a seed keeps producing
//     byte-identical schedules no matter how phase 2 is scheduled;
//  2. the per-user bitmaps are built from those values over a worker pool
//     writing disjoint arena rows (deterministic for any worker count).
//
// Every engine reads the table's rows. ScheduleAll is kept only as the
// conversion to the sorted-interval form (interval.Set, the serialization
// and test-reference representation): it is BuildTable(d, rng, 1).Sets(),
// identical to the pre-arena sequential build.
package onlinetime

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dosn/internal/interval"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Execution-only telemetry; see internal/obs. Table builds are timed and
// counted — the readings flow out to reports and the debug endpoint, never
// back into schedules.
var (
	obsTablesBuilt = obs.C("onlinetime.tables_built")
	obsRowsBuilt   = obs.C("onlinetime.rows_built")
	obsBuildNS     = obs.C("onlinetime.build_table_ns")
)

// recordBuild finalizes one BuildTable's telemetry: its duration since w
// and the row volume it produced.
func recordBuild(w obs.Watch, users int) {
	obsBuildNS.Add(w.ElapsedNS())
	obsTablesBuilt.Inc()
	obsRowsBuilt.Add(int64(users))
}

// Model computes per-user online-time schedules from an activity trace.
// Implementations must be deterministic given the same rng state: BuildTable
// draws all randomness in phase 1, sequentially, in a fixed per-user order.
type Model interface {
	// Name identifies the model in experiment output ("Sporadic", ...).
	Name() string
	// BuildTable returns the arena-backed dense schedule of every user.
	// Random values are consumed from rng in a fixed sequential order
	// (phase 1); workers bounds the parallel bitmap-construction pool
	// (phase 2), which never affects the result. workers <= 1 builds
	// inline.
	BuildTable(d *trace.Dataset, rng *rand.Rand, workers int) *Table
	// ScheduleAll returns one online-time set per user ID — the
	// sorted-interval conversion of BuildTable's arena, consuming rng
	// identically.
	ScheduleAll(d *trace.Dataset, rng *rand.Rand) []interval.Set
}

// Compile-time interface checks.
var (
	_ Model = Sporadic{}
	_ Model = FixedLength{}
	_ Model = RandomLength{}
)

// Sporadic models several short sessions per day, one per created activity.
// The paper's default session length is 20 minutes; Fig. 8 sweeps it from
// 100 s to 100 000 s.
type Sporadic struct {
	// SessionLength is the fixed session duration. Zero means the paper's
	// default of 20 minutes. Sub-minute lengths round up to one minute (the
	// schedule resolution).
	SessionLength time.Duration
}

// DefaultSessionLength is the paper's conservative session-length choice.
const DefaultSessionLength = 20 * time.Minute

// Name implements Model.
func (s Sporadic) Name() string { return "Sporadic" }

func (s Sporadic) sessionMinutes() int {
	d := s.SessionLength
	if d <= 0 {
		d = DefaultSessionLength
	}
	m := int((d + time.Minute - 1) / time.Minute)
	if m < 1 {
		m = 1
	}
	if m > interval.DayMinutes {
		m = interval.DayMinutes
	}
	return m
}

// buildShardUsers is the user granularity of the shard-by-shard Sporadic
// build: phase 1 and phase 2 alternate shard by shard, so the per-activity
// draw column is sized for one shard's activity volume instead of the whole
// population's (at 1M users the whole-population column is ~100 MB; per
// shard it is a few MB, reused across shards). Draws stay in global
// per-user order — all of user u's draws happen before user u+1's, across
// shard boundaries too — so the table bytes are identical to the historical
// whole-population build for any shard size and any worker count.
const buildShardUsers = 1 << 16

// BuildTable implements Model. A user with no created activities gets an
// empty schedule (never online), mirroring the paper's observation that
// online times must be inferred from activity.
//
// Phase 1 draws one session offset per created activity — the random point
// inside the session at which the activity happens — into a flat per-activity
// column aligned with the dataset's created-activity CSR index. Phase 2 ORs
// each user's session windows into his arena row. Both phases run shard by
// shard (buildShardUsers) with the draw column reused, bounding peak memory
// by one shard's activities.
func (s Sporadic) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int) *Table {
	w := obs.StartWatch()
	sess := s.sessionMinutes()
	n := d.NumUsers()
	t := NewTable(n)

	var uoff []int32 // per-shard CSR-style prefix sums, reused across shards
	var offs []int16 // per-shard draw column, reused across shards
	for slo := 0; slo < n; slo += buildShardUsers {
		shi := min(slo+buildShardUsers, n)
		m := shi - slo
		// Per-user offsets into this shard's draw column. Subtotals fit
		// int32: a shard's created activities are bounded by the dataset
		// total, which every construction path caps at trace.MaxActivities.
		if cap(uoff) >= m+1 {
			uoff = uoff[:m+1]
		} else {
			uoff = make([]int32, m+1)
		}
		uoff[0] = 0
		for u := slo; u < shi; u++ {
			uoff[u-slo+1] = uoff[u-slo] + int32(len(d.CreatedIdx(socialgraph.UserID(u))))
		}
		total := int(uoff[m])
		// Session offsets fit in int16: sessionMinutes() <= DayMinutes = 1440.
		if cap(offs) >= total {
			offs = offs[:total]
		} else {
			offs = make([]int16, total)
		}
		for i := range offs {
			//dosn:boundschecked sessionMinutes clamps sess to [1, DayMinutes=1440], fits int16
			offs[i] = int16(rng.Intn(sess))
		}

		forEachRowRangeIn(slo, shi, workers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				acts := d.CreatedIdx(socialgraph.UserID(u))
				base := uoff[u-slo]
				row := &t.rows[u]
				for j, k := range acts {
					// The activity happens at a uniformly random point inside
					// the session, so the session starts up to sess-1 minutes
					// earlier.
					//dosn:boundschecked j indexes acts, whose length is capped at trace.MaxActivities
					start := d.MinuteOfDayAt(int(k)) - int(offs[base+int32(j)])
					row.AddInterval(interval.Interval{Start: start, End: start + sess})
				}
			}
		})
	}
	recordBuild(w, n)
	return t
}

// ScheduleAll implements Model.
func (s Sporadic) ScheduleAll(d *trace.Dataset, rng *rand.Rand) []interval.Set {
	return s.BuildTable(d, rng, 1).Sets()
}

// FixedLength models one continuous daily online window of fixed length,
// centered on the circular mean of the user's activity minutes.
type FixedLength struct {
	// Hours is the window length; the paper evaluates 2, 4, 6 and 8.
	// Values are clamped to [1, 24]: a non-positive length would silently
	// mean "never online" (contradicting the model) and anything above a
	// day is the full day anyway. The clamped behavior is pinned by
	// TestDegenerateHourKnobs.
	Hours int
}

// Name implements Model.
func (f FixedLength) Name() string { return fmt.Sprintf("FixedLength(%dh)", f.Hours) }

// windowMinutes returns the effective window length with Hours clamped to
// [1, 24] — degenerate knobs (zero, negative, more than a day) become
// explicit bounds instead of leaking nonsense windows through the interval
// layer.
func (f FixedLength) windowMinutes() int { return min(max(f.Hours, 1), 24) * 60 }

// BuildTable implements Model. Users with no activities get a window at a
// uniformly random time of day (their behaviour is unknown); phase 1 draws
// exactly those centers, phase 2 computes the activity-derived centers (the
// trigonometric circular mean, the expensive part) in parallel.
func (f FixedLength) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int) *Table {
	w := obs.StartWatch()
	length := f.windowMinutes()
	n := d.NumUsers()
	t := NewTable(n)
	centers := drawCenters(d, rng, make([]int32, 0, n))
	forEachRowRange(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			t.rows[u].AddInterval(windowCentered(resolveCenter(d, centers, u), length))
		}
	})
	recordBuild(w, n)
	return t
}

// ScheduleAll implements Model.
func (f FixedLength) ScheduleAll(d *trace.Dataset, rng *rand.Rand) []interval.Set {
	return f.BuildTable(d, rng, 1).Sets()
}

// RandomLength is FixedLength with a per-user window length drawn uniformly
// from [MinHours, MaxHours] (the paper uses [2, 8]).
type RandomLength struct {
	// MinHours and MaxHours bound the per-user window length. Zero values
	// mean the paper's defaults of 2 and 8; the resolved bounds are clamped
	// into [1, 24] with MaxHours raised to MinHours when inverted (pinned
	// by TestDegenerateHourKnobs).
	MinHours int
	MaxHours int
}

// Name implements Model.
func (r RandomLength) Name() string { return "RandomLength" }

func (r RandomLength) bounds() (lo, hi int) {
	lo, hi = r.MinHours, r.MaxHours
	if lo <= 0 {
		lo = 2
	}
	if hi <= 0 {
		hi = 8
	}
	lo = min(max(lo, 1), 24)
	hi = min(max(hi, 1), 24)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// BuildTable implements Model. Phase 1 draws, per user, the window length
// and — for users with no activities — the random center, in that order
// (the historical draw order).
func (r RandomLength) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int) *Table {
	w := obs.StartWatch()
	lo, hi := r.bounds()
	n := d.NumUsers()
	t := NewTable(n)
	lengths := make([]int32, n)
	centers := make([]int32, n)
	for u := 0; u < n; u++ {
		//dosn:boundschecked bounds() clamps lo,hi to [1,24], so the draw is < 25*60
		lengths[u] = int32(lo*60 + rng.Intn((hi-lo)*60+1))
		centers[u] = drawCenter(d, rng, socialgraph.UserID(u))
	}
	forEachRowRange(n, workers, func(ulo, uhi int) {
		for u := ulo; u < uhi; u++ {
			t.rows[u].AddInterval(windowCentered(resolveCenter(d, centers, u), int(lengths[u])))
		}
	})
	recordBuild(w, n)
	return t
}

// ScheduleAll implements Model.
func (r RandomLength) ScheduleAll(d *trace.Dataset, rng *rand.Rand) []interval.Set {
	return r.BuildTable(d, rng, 1).Sets()
}

// drawCenter performs user u's phase-1 center draw: a uniformly random
// minute for users with no created activities (whose behaviour is unknown),
// or -1 meaning "derive the center from the activity history in phase 2".
func drawCenter(d *trace.Dataset, rng *rand.Rand, u socialgraph.UserID) int32 {
	if len(d.CreatedIdx(u)) == 0 {
		return int32(rng.Intn(interval.DayMinutes))
	}
	return -1
}

// drawCenters runs drawCenter over every user in ID order, appending to dst.
func drawCenters(d *trace.Dataset, rng *rand.Rand, dst []int32) []int32 {
	n := d.NumUsers()
	for u := 0; u < n; u++ {
		dst = append(dst, drawCenter(d, rng, socialgraph.UserID(u)))
	}
	return dst
}

// resolveCenter returns the window center for user u: the phase-1 draw when
// one was made, the circular activity mean otherwise.
func resolveCenter(d *trace.Dataset, centers []int32, u int) int {
	if c := centers[u]; c >= 0 {
		return int(c)
	}
	center, _ := activityCenter(d, socialgraph.UserID(u))
	return center
}

// windowCentered is the interval of the window of the given length centered
// on the minute center, in the (possibly wrapping) form Bitmap.AddInterval
// canonicalizes exactly like interval.WindowCentered.
func windowCentered(center, length int) interval.Interval {
	start := center - length/2
	return interval.Interval{Start: start, End: start + length}
}

// activityCenter returns the circular mean minute-of-day of the user's
// created activities; ok is false when the user has none.
func activityCenter(d *trace.Dataset, u socialgraph.UserID) (center int, ok bool) {
	acts := d.CreatedIdx(u)
	if len(acts) == 0 {
		return 0, false
	}
	var sx, sy float64
	for _, k := range acts {
		th := 2 * math.Pi * float64(d.MinuteOfDayAt(int(k))) / interval.DayMinutes
		sx += math.Cos(th)
		sy += math.Sin(th)
	}
	if math.Hypot(sx, sy) < 1e-9*float64(len(acts)) {
		// Perfectly balanced activities (e.g. two opposite minutes): any
		// center is as good as any other; use the first activity.
		return d.MinuteOfDayAt(int(acts[0])), true
	}
	th := math.Atan2(sy, sx)
	m := int(math.Round(th / (2 * math.Pi) * interval.DayMinutes))
	if m < 0 {
		m += interval.DayMinutes
	}
	return m % interval.DayMinutes, true
}

// ComputeTable builds the model's schedule table with a deterministic seed
// and the given phase-2 worker budget (which never affects the result).
func ComputeTable(m Model, d *trace.Dataset, seed int64, workers int) *Table {
	return m.BuildTable(d, rand.New(rand.NewSource(seed)), workers)
}

// DefaultModels returns the model set evaluated throughout the paper's
// result figures: Sporadic (20 min), RandomLength, FixedLength 2 h and 8 h.
func DefaultModels() []Model {
	return []Model{
		Sporadic{},
		RandomLength{},
		FixedLength{Hours: 2},
		FixedLength{Hours: 8},
	}
}
