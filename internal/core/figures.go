package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// Options tunes how figures are regenerated. The zero value is filled with
// the paper's choices (degree-10 users, replication degree 0..10) and a
// default repeat count.
type Options struct {
	// MaxDegree is the replication-degree sweep bound (paper: 10).
	MaxDegree int
	// UserDegree selects the analysis population (paper: degree 10).
	UserDegree int
	// Repeats averages repeated randomized runs (paper: 5).
	Repeats int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds per-sweep parallelism (0 = NumCPU).
	Workers int
}

func (o Options) fill() Options {
	if o.MaxDegree <= 0 {
		o.MaxDegree = 10
	}
	if o.UserDegree <= 0 {
		o.UserDegree = 10
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// PanelSpec identifies one panel of a paper figure: a dataset, an
// online-time model, a placement mode, and the metric plotted.
type PanelSpec struct {
	ID      string
	Dataset string // "facebook" or "twitter"
	Title   string
	Model   onlinetime.Model
	Mode    replica.Mode
	Metric  Metric
}

// panelModels is the (a)-(d) model order used by figures 3, 5, 6, 7, 10, 11.
var panelModels = []struct {
	suffix string
	model  onlinetime.Model
}{
	{suffix: "a", model: onlinetime.Sporadic{}},
	{suffix: "b", model: onlinetime.RandomLength{}},
	{suffix: "c", model: onlinetime.FixedLength{Hours: 2}},
	{suffix: "d", model: onlinetime.FixedLength{Hours: 8}},
}

// StandardPanels returns the sweep panels for figures 3–7 and 10–11.
func StandardPanels() []PanelSpec {
	add := func(out []PanelSpec, fig, dataset string, mode replica.Mode, metric Metric, what string) []PanelSpec {
		for _, pm := range panelModels {
			out = append(out, PanelSpec{
				ID:      fig + pm.suffix,
				Dataset: dataset,
				Title:   fmt.Sprintf("%s-%s: %s (%s)", datasetTitle(dataset), mode, what, pm.model.Name()),
				Model:   pm.model,
				Mode:    mode,
				Metric:  metric,
			})
		}
		return out
	}
	var out []PanelSpec
	out = add(out, "fig3", "facebook", replica.ConRep, MetricAvailability, "Availability")
	// Fig 4 shows only the FixedLength panels for UnconRep.
	out = append(out,
		PanelSpec{ID: "fig4a", Dataset: "facebook", Title: "Facebook-UnconRep: Availability (FixedLength(2h))",
			Model: onlinetime.FixedLength{Hours: 2}, Mode: replica.UnconRep, Metric: MetricAvailability},
		PanelSpec{ID: "fig4b", Dataset: "facebook", Title: "Facebook-UnconRep: Availability (FixedLength(8h))",
			Model: onlinetime.FixedLength{Hours: 8}, Mode: replica.UnconRep, Metric: MetricAvailability},
	)
	out = add(out, "fig5", "facebook", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time")
	out = add(out, "fig6", "facebook", replica.ConRep, MetricAoDActivity, "Availability-on-Demand-Activity")
	out = add(out, "fig7", "facebook", replica.ConRep, MetricDelayHours, "Update Propagation Delay")
	out = add(out, "fig10", "twitter", replica.ConRep, MetricAvailability, "Availability")
	out = add(out, "fig11", "twitter", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time")
	return out
}

func datasetTitle(name string) string {
	switch name {
	case "facebook":
		return "Facebook"
	case "twitter":
		return "Twitter"
	default:
		return name
	}
}

// MetricSeries extracts one plottable series per policy for the metric.
func (r *Result) MetricSeries(m Metric) []plot.Series {
	out := make([]plot.Series, len(r.Policies))
	for pi, name := range r.Policies {
		xs := make([]float64, len(r.Degrees))
		ys := make([]float64, len(r.Degrees))
		for di, d := range r.Degrees {
			xs[di] = float64(d)
			ys[di] = r.Value(pi, di, m)
		}
		out[pi] = plot.Series{Label: name, X: xs, Y: ys}
	}
	return out
}

// Last returns the metric value at the largest swept degree.
func (r *Result) Last(policy int, m Metric) float64 {
	return r.Value(policy, len(r.Degrees)-1, m)
}

// DegreeDistributionFigure reproduces Fig. 2: the number of users at each
// user degree for every given dataset.
func DegreeDistributionFigure(datasets ...*trace.Dataset) plot.Figure {
	fig := plot.Figure{
		ID:     "fig2",
		Title:  "User degree distribution of the datasets",
		XLabel: "user degree",
		YLabel: "number of users",
	}
	for _, ds := range datasets {
		hist := ds.Graph.DegreeHistogram()
		var xs, ys []float64
		for d, c := range hist {
			if c > 0 {
				xs = append(xs, float64(d))
				ys = append(ys, float64(c))
			}
		}
		fig.Series = append(fig.Series, plot.Series{Label: datasetTitle(ds.Name), X: xs, Y: ys})
	}
	return fig
}

// SessionLengthSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var SessionLengthSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// Suite binds the two datasets and regenerates any figure of the paper by
// its identifier ("fig2", "fig3a" … "fig11d").
//
// Every sweep-based figure is a projection of a replication-degree sweep
// the suite runs once and keeps: the four Facebook ConRep sweeps serve
// Figs. 3, 5, 6 and 7, the seven session-length sweeps serve all of
// Fig. 8, and the user-degree sweeps serve both panels of Fig. 9. A sweep
// is keyed by everything its result depends on, so changing Opts (other
// than Workers) or a dataset after a call computes fresh sweeps. Figure is
// safe for concurrent use; a Suite must not be copied after first use.
type Suite struct {
	Facebook *trace.Dataset
	Twitter  *trace.Dataset
	Opts     Options

	mu     sync.Mutex
	sweeps map[sweepKey]*Result
}

// sweepKey identifies one sweep of the suite. It holds the model value, not
// its Name(): Sporadic.Name() ignores SessionLength. Workers is left out
// because the result does not depend on it.
type sweepKey struct {
	ds         *trace.Dataset
	model      onlinetime.Model
	mode       replica.Mode
	maxDegree  int
	userDegree int
	repeats    int
	seed       int64
}

// FigureIDs lists every figure the suite can regenerate, in paper order.
func (s *Suite) FigureIDs() []string {
	ids := []string{"fig2"}
	for _, p := range StandardPanels() {
		ids = append(ids, p.ID)
	}
	ids = append(ids, "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b")
	return ids
}

// Figure regenerates the figure with the given identifier.
func (s *Suite) Figure(id string) (plot.Figure, error) {
	fig, err := s.figure(id, s.Opts.fill())
	if err != nil {
		return plot.Figure{}, fmt.Errorf("figure %s: %w", id, err)
	}
	return fig, nil
}

func (s *Suite) figure(id string, opts Options) (plot.Figure, error) {
	switch id {
	case "fig2":
		for _, name := range []string{"facebook", "twitter"} {
			if _, err := s.dataset(name); err != nil {
				return plot.Figure{}, err
			}
		}
		return DegreeDistributionFigure(s.Facebook, s.Twitter), nil
	case "fig8a":
		return s.sessionLengthFigure(id, MetricAvailability, opts)
	case "fig8b":
		return s.sessionLengthFigure(id, MetricAoDTime, opts)
	case "fig8c":
		return s.sessionLengthFigure(id, MetricAoDActivity, opts)
	case "fig8d":
		return s.sessionLengthFigure(id, MetricDelayHours, opts)
	case "fig9a":
		return s.userDegreeFigure(id, MetricAvailability, opts)
	case "fig9b":
		return s.userDegreeFigure(id, MetricDelayHours, opts)
	}
	for _, p := range StandardPanels() {
		if p.ID == id {
			return s.panel(p, opts)
		}
	}
	return plot.Figure{}, errors.New("unknown figure")
}

// dataset resolves a panel's dataset name ("facebook" or "twitter").
func (s *Suite) dataset(name string) (*trace.Dataset, error) {
	ds := s.Facebook
	if name == "twitter" {
		ds = s.Twitter
	}
	if ds == nil {
		return nil, fmt.Errorf("dataset %q not loaded", name)
	}
	return ds, nil
}

// sweep returns the suite's sweep for k at opts' repeats and seed, running
// it on first use. Failures are not kept. Two concurrent first requests may
// both run the sweep; their results are identical.
func (s *Suite) sweep(k sweepKey, opts Options) (*Result, error) {
	k.repeats, k.seed = opts.Repeats, opts.Seed
	s.mu.Lock()
	res, ok := s.sweeps[k]
	s.mu.Unlock()
	if ok {
		return res, nil
	}
	res, err := Run(Config{
		Dataset:    k.ds,
		Model:      k.model,
		Mode:       k.mode,
		MaxDegree:  k.maxDegree,
		UserDegree: k.userDegree,
		Repeats:    k.repeats,
		Seed:       k.seed,
		Workers:    opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.sweeps == nil {
		s.sweeps = map[sweepKey]*Result{}
	}
	s.sweeps[k] = res
	s.mu.Unlock()
	return res, nil
}

// panel reproduces one panel of Figs. 3–7 and 10–11: its metric over the
// replication degree.
func (s *Suite) panel(p PanelSpec, opts Options) (plot.Figure, error) {
	ds, err := s.dataset(p.Dataset)
	if err != nil {
		return plot.Figure{}, err
	}
	res, err := s.sweep(sweepKey{ds: ds, model: p.Model, mode: p.Mode, maxDegree: opts.MaxDegree, userDegree: opts.UserDegree}, opts)
	if err != nil {
		return plot.Figure{}, err
	}
	return plot.Figure{
		ID:     p.ID,
		Title:  p.Title,
		XLabel: "replication degree",
		YLabel: p.Metric.String(),
		Series: res.MetricSeries(p.Metric),
	}, nil
}

// sessionLengthFigure reproduces one panel of Fig. 8: a metric as a
// function of the Sporadic session length at a fixed replication degree
// of 3.
func (s *Suite) sessionLengthFigure(id string, metric Metric, opts Options) (plot.Figure, error) {
	ds, err := s.dataset("facebook")
	if err != nil {
		return plot.Figure{}, err
	}
	const fixedDegree = 3
	var results []*Result
	for _, sec := range SessionLengthSeconds {
		model := onlinetime.Sporadic{SessionLength: time.Duration(sec) * time.Second}
		res, err := s.sweep(sweepKey{ds: ds, model: model, mode: replica.ConRep, maxDegree: fixedDegree, userDegree: opts.UserDegree}, opts)
		if err != nil {
			return plot.Figure{}, fmt.Errorf("session %.0fs: %w", sec, err)
		}
		results = append(results, res)
	}
	return plot.Figure{
		ID:     id,
		Title:  fmt.Sprintf("Effect of session length in Sporadic (degree %d): %s", fixedDegree, metric),
		XLabel: "session length (sec)",
		YLabel: metric.String(),
		LogX:   true,
		Series: lastSeries(results, SessionLengthSeconds, metric),
	}, nil
}

// userDegreeFigure reproduces one panel of Fig. 9: a metric as a function
// of the user degree (1..UserDegree) with the replication degree allowed to
// reach the user degree (all friends may host replicas). Degrees without
// users are skipped.
func (s *Suite) userDegreeFigure(id string, metric Metric, opts Options) (plot.Figure, error) {
	ds, err := s.dataset("facebook")
	if err != nil {
		return plot.Figure{}, err
	}
	var (
		results []*Result
		degrees []float64
	)
	for d := 1; d <= opts.UserDegree; d++ {
		res, err := s.sweep(sweepKey{ds: ds, model: onlinetime.Sporadic{}, mode: replica.ConRep, maxDegree: d, userDegree: d}, opts)
		if errors.Is(err, ErrNoUsers) {
			continue
		}
		if err != nil {
			return plot.Figure{}, fmt.Errorf("user degree %d: %w", d, err)
		}
		results = append(results, res)
		degrees = append(degrees, float64(d))
	}
	if len(results) == 0 {
		return plot.Figure{}, ErrNoUsers
	}
	return plot.Figure{
		ID:     id,
		Title:  fmt.Sprintf("Effect of user degree in Sporadic: %s", metric),
		XLabel: "user degree",
		YLabel: metric.String(),
		Series: lastSeries(results, degrees, metric),
	}, nil
}

// lastSeries projects a list of sweeps onto one series per policy: point i
// is sweep i's metric value at its largest degree, plotted at xs[i].
func lastSeries(results []*Result, xs []float64, m Metric) []plot.Series {
	out := make([]plot.Series, len(results[0].Policies))
	for pi, name := range results[0].Policies {
		ys := make([]float64, len(results))
		for i, res := range results {
			ys[i] = res.Last(pi, m)
		}
		out[pi] = plot.Series{Label: name, X: slices.Clone(xs), Y: ys}
	}
	return out
}
