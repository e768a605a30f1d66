package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/harness"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// replayTrace is the state of one traced replay: the span recorder, the
// Select counters of the friend-replica policies and of the DHT
// placements, and the datasets and one schedule table per dataset for the
// interval kernel pass.
type replayTrace struct {
	rec      *recorder
	friend   selectStats
	dht      selectStats
	datasets []*trace.Dataset
	tables   map[*trace.Dataset]*onlinetime.Table
}

func newReplayTrace() *replayTrace {
	return &replayTrace{rec: newRecorder(), friend: selectStats{}, dht: selectStats{}, tables: map[*trace.Dataset]*onlinetime.Table{}}
}

func (rt *replayTrace) synthesize(name string, users int, seed int64) (*trace.Dataset, error) {
	id := rt.rec.begin("trace.SynthesizeCalibrated", name, 0)
	ds, err := trace.SynthesizeCalibrated(name, users, seed, trace.PaperMinActivity)
	if err == nil {
		rt.rec.setN(id, int64(ds.NumActivities()))
		rt.datasets = append(rt.datasets, ds)
	}
	rt.rec.end(id, 0)
	return ds, err
}

// keepTable remembers the first table built over a dataset.
func (rt *replayTrace) keepTable(ds *trace.Dataset, t *onlinetime.Table) {
	if _, ok := rt.tables[ds]; !ok {
		rt.tables[ds] = t
	}
}

// run records one core.Run; Select time of the wrapped policies is
// aggregated child time of its span.
func (rt *replayTrace) run(cfg core.Config) (*core.Result, error) {
	cfg.Workers, cfg.NoPipeline = 1, true
	before := rt.friend.totalNS() + rt.dht.totalNS()
	id := rt.rec.begin("core.Run", modelKind(cfg.Model), 0)
	res, err := core.Run(cfg)
	if err == nil {
		rt.rec.setN(id, int64(res.Users*res.Repeats))
	}
	rt.rec.end(id, rt.friend.totalNS()+rt.dht.totalNS()-before)
	return res, err
}

func (rt *replayTrace) model(m onlinetime.Model) onlinetime.Model {
	return timedModel{Model: m, rt: rt}
}

// matrixReplay computes every cell of spec the way harness.Run does, one
// cell after the other on one core worker: datasets, rings and
// per-repetition schedule tables are built once and shared by the cells
// with the same coordinates, from the same seeds.
func matrixReplay(spec harness.MatrixSpec, rt *replayTrace) []unit {
	cells := spec.Cells()
	units := make([]unit, len(cells))
	datasets := map[harness.DatasetSpec]*trace.Dataset{}
	rings := map[harness.DatasetSpec]*dht.Ring{}
	tables := map[string][]*onlinetime.Table{}
	for i, c := range cells {
		rt.rec.setRun(i)
		u := &units[i]
		u.name = c.Key()
		ds, ok := datasets[c.Dataset]
		if !ok {
			var err error
			if ds, err = rt.synthesize(c.Dataset.Name, c.Dataset.Users, c.Dataset.Seed); err != nil {
				u.failf("synthesize: %v", err)
				continue
			}
			datasets[c.Dataset] = ds
		}
		policies := replica.DefaultPolicies()
		stats := rt.friend
		if c.ArchName() != dht.ArchFriendReplica {
			ring, ok := rings[c.Dataset]
			if !ok {
				var err error
				rt.rec.do("dht.BuildRing", c.Arch, int64(ds.NumUsers()), func() {
					ring, err = dht.BuildRing(ds.NumUsers(), dht.Config{Bits: c.RingBits})
				})
				if err != nil {
					u.failf("ring: %v", err)
					continue
				}
				rings[c.Dataset] = ring
			}
			arch, err := dht.NewArchitecture(c.Arch, ring, ds.Graph, nil)
			if err != nil {
				u.failf("architecture: %v", err)
				continue
			}
			policies, stats = arch.Policies(), rt.dht
		}
		model, err := c.Model.Model()
		if err != nil {
			u.failf("model: %v", err)
			continue
		}
		key := fmt.Sprint(c.Dataset, "|", scheduleModelKey(c.Model))
		if _, ok := tables[key]; !ok {
			ts := make([]*onlinetime.Table, spec.Repeats)
			for rep := range ts {
				rng := rand.New(rand.NewSource(scheduleSeed(spec, c.Dataset, c.Model, rep)))
				ts[rep] = rt.model(model).BuildTable(ds, rng, 1)
			}
			tables[key] = ts
		}
		res, err := rt.run(core.Config{
			Dataset:    ds,
			Model:      model,
			Mode:       c.Mode,
			Policies:   stats.wrap(policies),
			MaxDegree:  spec.MaxDegree,
			UserDegree: spec.UserDegree,
			Repeats:    spec.Repeats,
			Seed:       spec.CellSeed(c),
			Schedules:  tables[key],
		})
		if err != nil {
			u.failf("core.Run: %v", err)
			continue
		}
		u.data = cellData(c, spec.CellSeed(c), res)
	}
	return units
}

// cellData is the harness.CellResult a finished cell reports.
func cellData(c harness.CellSpec, seed int64, res *core.Result) harness.CellResult {
	s := sweepOf(res)
	arch := ""
	if c.ArchName() != dht.ArchFriendReplica {
		arch = c.Arch
	}
	return harness.CellResult{
		Dataset: c.Dataset.Name, Model: c.Model.Name(), Mode: c.Mode.String(), Architecture: arch,
		DatasetSpec: c.Dataset, ModelSpec: c.Model, Seed: seed,
		Users: res.Users, Repeats: res.Repeats, Degrees: res.Degrees, Policies: res.Policies,
		Metrics: s.Metrics,
	}
}

// scheduleSeed mirrors harness's derivation of the seed of one (dataset,
// model, repetition) schedule table, an FNV-1a hash of the root seed and
// the canonical coordinates. It covers the dataset and model specs the
// workloads use (explicit dataset seeds, default model parameters); the
// traced run's equality check against the untraced pass fails every cell
// if the two derivations ever diverge.
func scheduleSeed(spec harness.MatrixSpec, d harness.DatasetSpec, m harness.ModelSpec, rep int) int64 {
	minAct := d.MinActivity
	if minAct == 0 {
		minAct = trace.PaperMinActivity
	}
	key := fmt.Sprintf("sched|%d|%s/%d/%d/%d|%s|%d", spec.RootSeed, d.Name, d.Users, d.Seed, minAct, scheduleModelKey(m), rep)
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// scheduleModelKey is harness's canonical model key for default-parameter
// model specs.
func scheduleModelKey(m harness.ModelSpec) string {
	switch m.Kind {
	case "sporadic":
		return fmt.Sprintf("sporadic/0/%d/0/0", int(onlinetime.DefaultSessionLength/time.Second))
	case "fixed":
		return fmt.Sprintf("fixed/%d/0/0/0", m.Hours)
	default:
		return "random/0/0/2/8"
	}
}

// figuresReplay regenerates the figure suite the way core.Suite.Figure
// does, calling core.Run directly with wrapped policies and models, then
// runs the extension experiments with a wrapped model.
func figuresReplay(seed int64, rt *replayTrace) []unit {
	fb, tw, err := figureDatasets(rt.synthesize)
	if err != nil {
		return failedFigureUnits(err)
	}
	opts := core.Options{Repeats: figureRepeats, Seed: seed, UserDegree: 10, MaxDegree: 10}
	var units []unit
	for i, id := range (&core.Suite{}).FigureIDs() {
		rt.rec.setRun(i)
		f, err := replayFigure(id, fb, tw, opts, rt)
		units = append(units, figureUnit(id, f, err))
	}
	for _, name := range experimentNames {
		rt.rec.setRun(len(units))
		var u unit
		rt.rec.do("core.experiment", name, 0, func() {
			u = experimentUnit(name, fb, rt.model(onlinetime.Sporadic{}), seed, 1)
		})
		units = append(units, u)
	}
	return units
}

// replayFigure computes the series of one figure.
func replayFigure(id string, fb, tw *trace.Dataset, opts core.Options, rt *replayTrace) (plot.Figure, error) {
	sweepRun := func(cfg core.Config) (*core.Result, error) {
		cfg.Model = rt.model(cfg.Model)
		cfg.Policies = rt.friend.wrap(replica.DefaultPolicies())
		cfg.Repeats, cfg.Seed = opts.Repeats, opts.Seed
		return rt.run(cfg)
	}
	// last collects, per policy, each result's value at its largest degree.
	last := func(results []*core.Result, xs []float64, m core.Metric) plot.Figure {
		f := plot.Figure{ID: id, YLabel: m.String()}
		for pi, name := range results[0].Policies {
			ys := make([]float64, len(results))
			for i, r := range results {
				ys[i] = r.Last(pi, m)
			}
			f.Series = append(f.Series, plot.Series{Label: name, X: xs, Y: ys})
		}
		return f
	}
	switch id[:4] {
	case "fig2":
		var f plot.Figure
		rt.rec.do("core.DegreeDistributionFigure", "", 0, func() { f = core.DegreeDistributionFigure(fb, tw) })
		return f, nil
	case "fig8":
		m := map[string]core.Metric{"fig8a": core.MetricAvailability, "fig8b": core.MetricAoDTime, "fig8c": core.MetricAoDActivity, "fig8d": core.MetricDelayHours}[id]
		var results []*core.Result
		for _, sec := range core.SessionLengthSeconds {
			r, err := sweepRun(core.Config{Dataset: fb, Model: onlinetime.Sporadic{SessionLength: time.Duration(sec) * time.Second},
				Mode: replica.ConRep, MaxDegree: 3, UserDegree: opts.UserDegree})
			if err != nil {
				return plot.Figure{}, err
			}
			results = append(results, r)
		}
		return last(results, core.SessionLengthSeconds, m), nil
	case "fig9":
		m := core.MetricAvailability
		if id == "fig9b" {
			m = core.MetricDelayHours
		}
		var results []*core.Result
		var xs []float64
		for d := 1; d <= opts.UserDegree; d++ {
			users := fb.Graph.UsersWithDegree(d)
			if len(users) == 0 {
				continue
			}
			r, err := sweepRun(core.Config{Dataset: fb, Model: onlinetime.Sporadic{}, Mode: replica.ConRep, MaxDegree: d, Users: users})
			if err != nil {
				return plot.Figure{}, err
			}
			results = append(results, r)
			xs = append(xs, float64(d))
		}
		if len(results) == 0 {
			return plot.Figure{}, core.ErrNoUsers
		}
		return last(results, xs, m), nil
	}
	for _, p := range core.StandardPanels() {
		if p.ID != id {
			continue
		}
		ds := fb
		if p.Dataset == "twitter" {
			ds = tw
		}
		r, err := sweepRun(core.Config{Dataset: ds, Model: p.Model, Mode: p.Mode, MaxDegree: opts.MaxDegree, UserDegree: opts.UserDegree})
		if err != nil {
			return plot.Figure{}, err
		}
		return plot.Figure{ID: id, YLabel: p.Metric.String(), Series: r.MetricSeries(p.Metric)}, nil
	}
	return plot.Figure{}, fmt.Errorf("unknown figure %q", id)
}

// intervalPass times the dense schedule kernels the sweep runs per
// (user, friend) pair — OrWithCount, OverlapMinutes, MaxGapWith — over the
// workload's own table rows for every degree-10 user's friends, repeating
// the pass until it has run for at least minNS. It returns the operation
// count and the elapsed time.
func intervalPass(rt *replayTrace, minNS int64) (ops, ns int64) {
	var sink int
	start := time.Now()
	for ns < minNS {
		for _, ds := range rt.datasets {
			t := rt.tables[ds]
			if t == nil {
				continue
			}
			for _, u := range ds.Graph.UsersWithDegree(10) {
				acc := *t.Bitmap(u)
				for _, f := range ds.Graph.Neighbors(u) {
					row := t.Bitmap(f)
					sink += acc.OrWithCount(row)
					sink += t.Bitmap(u).OverlapMinutes(row)
					g, _ := t.Bitmap(u).MaxGapWith(row)
					sink += g
					ops += 3
				}
			}
		}
		ns = time.Since(start).Nanoseconds()
		if ops == 0 {
			break
		}
	}
	sinkInt = sink
	return ops, ns
}

// sinkInt keeps the kernel results live so the pass is not optimized away.
var sinkInt int
