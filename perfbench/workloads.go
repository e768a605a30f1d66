package main

import (
	"fmt"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/harness"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// Workload sizes. They are chosen so one pass takes a few seconds on a
// 2-CPU machine: several passes then fit in one measured run, and the
// reported medians stay steady.
const (
	// paperMatrixUsers is the per-dataset user count of matrix-paper.
	paperMatrixUsers = 20_000
	// paperMatrixRepeats is matrix-paper's repetition count.
	paperMatrixRepeats = 3
	// scaleUsers is the single dataset's user count of matrix-scale (the
	// simulator's "large" scale).
	scaleUsers = 100_000
	// figureRepeats is the repetition count of the figure suite.
	figureRepeats = 2
)

// workload is one named benchmark input; LADDER.md says why each was
// chosen. pass runs it untraced with the given worker count (0 = the
// program's NumCPU defaults) and returns its checked units; replay runs the
// same computation single-threaded through timing wrappers.
type workload struct {
	name   string
	pass   func(seed int64, workers int) passOutput
	replay func(seed int64, rt *replayTrace) []unit
}

// passOutput is one untraced pass: its units, the time to its first result
// and its wall time.
type passOutput struct {
	units   []unit
	digest  string
	setupNS int64
	wallNS  int64
}

var workloads = []workload{
	{
		name: "matrix-paper",
		pass: func(seed int64, workers int) passOutput {
			return matrixPass(paperMatrixSpec(seed), workers)
		},
		replay: func(seed int64, rt *replayTrace) []unit { return matrixReplay(paperMatrixSpec(seed), rt) },
	},
	{
		name: "matrix-scale",
		pass: func(seed int64, workers int) passOutput {
			return matrixPass(scaleMatrixSpec(seed), workers)
		},
		replay: func(seed int64, rt *replayTrace) []unit { return matrixReplay(scaleMatrixSpec(seed), rt) },
	},
	{
		name: "figures",
		pass: func(seed int64, workers int) passOutput {
			return figuresPass(seed, workers)
		},
		replay: figuresReplay,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func paperMatrixSpec(seed int64) harness.MatrixSpec {
	spec := harness.PaperMatrix(paperMatrixUsers)
	spec.Repeats = paperMatrixRepeats
	spec.RootSeed = seed
	return spec
}

func scaleMatrixSpec(seed int64) harness.MatrixSpec {
	return harness.MatrixSpec{
		Version:       harness.SpecVersion,
		Datasets:      []harness.DatasetSpec{{Name: "facebook", Users: scaleUsers, Seed: 1}},
		Models:        []harness.ModelSpec{harness.Sporadic()},
		Modes:         []string{replica.ConRep.String()},
		Architectures: []string{dht.ArchFriendReplica, dht.ArchRandomDHT, dht.ArchSocialDHT},
		MaxDegree:     10,
		UserDegree:    10,
		Repeats:       1,
		RootSeed:      seed,
	}
}

// matrixPass runs the matrix through harness.Run. workers = 1 is the fully
// serial reference execution (one cell at a time, one core worker, no
// prefetch or pipelining).
func matrixPass(spec harness.MatrixSpec, workers int) passOutput {
	opts := harness.RunOptions{}
	if workers > 0 {
		opts = harness.RunOptions{Workers: workers, CoreWorkers: workers, NoPrefetch: true}
	}
	start := time.Now()
	var setupNS int64
	opts.Progress = func(done, _ int, _ harness.CellSpec, _ time.Duration) {
		if done == 1 {
			setupNS = time.Since(start).Nanoseconds()
		}
	}
	m, err := harness.Run(spec, opts)
	out := passOutput{wallNS: time.Since(start).Nanoseconds(), setupNS: setupNS}
	cells := spec.Cells()
	out.units = make([]unit, len(cells))
	for i, c := range cells {
		u := &out.units[i]
		u.name = c.Key()
		if err != nil {
			u.failf("harness.Run: %v", err)
			continue
		}
		res := m.Cells[i]
		u.data = res
		u.checkGrids(res.Policies, res.Metrics, true)
	}
	if err == nil {
		b, cerr := m.MarshalCanonical()
		if cerr != nil {
			out.units[0].failf("MarshalCanonical: %v", cerr)
		}
		out.digest = sha256Hex(b)
	}
	return out
}

// experiments lists the extension experiments the figures workload runs
// after the figures, with the parameters dosn-sim's -experiment flag uses.
var experimentNames = []string{"protocol", "loadbalance", "objective", "history", "churn", "arch"}

// runExperiment runs one extension experiment on the facebook dataset and
// returns its canonical data plus the shares it reports. workers bounds
// the per-sweep pools of the experiments that take a worker count.
func runExperiment(name string, fb *trace.Dataset, model onlinetime.Model, seed int64, workers int) (data any, shares map[string]float64, sweeps []sweep, err error) {
	switch name {
	case "protocol":
		r, err := core.RunProtocolValidation(core.ProtocolConfig{Dataset: fb, Model: model, Seed: seed, MaxWalls: 25, Days: 7})
		if err != nil {
			return nil, nil, nil, err
		}
		return r, map[string]float64{
			"delivered": r.DeliveredFraction, "immediate": r.ImmediateFraction,
			"analytic_aod_activity": r.AnalyticAoDActivity,
			"measured_aod_time":     r.MeasuredAoDTime, "analytic_aod_time": r.AnalyticAoDTime,
		}, nil, nil
	case "loadbalance":
		rows, err := core.ReplicaLoadBalance(fb, model, replica.ConRep, 3, seed)
		return rows, nil, nil, err
	case "objective":
		r, err := core.ObjectiveAblation(fb, model, core.Options{Repeats: 3, Seed: seed, Workers: workers})
		if err != nil {
			return nil, nil, nil, err
		}
		s := sweepOf(r)
		return s, nil, []sweep{s}, nil
	case "history":
		r, err := core.HistorySplit(fb, model, 3, 0.5, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, map[string]float64{
			"historical": r.HistoricalAoDActivity, "oracle": r.OracleAoDActivity, "random": r.RandomAoDActivity,
		}, nil, nil
	case "churn":
		rows, err := core.Churn(fb, model, 5, 3, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		shares = map[string]float64{}
		for _, r := range rows {
			for j, v := range r.Availability {
				shares[fmt.Sprintf("%s/fail=%d", r.Policy, j)] = v
			}
		}
		return rows, shares, nil, nil
	case "arch":
		rows, err := core.RunArchComparison(core.ArchConfig{Dataset: fb, Model: model, MaxDegree: 5, Repeats: 3, Seed: seed, Workers: workers})
		if err != nil {
			return nil, nil, nil, err
		}
		type archData struct {
			Architecture string
			Sweep        sweep
			Lookup       any
			Load         [4]float64
		}
		out := make([]archData, len(rows))
		for i, r := range rows {
			s := sweepOf(r.Sweep)
			out[i] = archData{r.Architecture, s, r.Lookup, [4]float64{r.LoadMean, r.LoadMax, r.LoadCV, r.LoadGini}}
			sweeps = append(sweeps, s)
		}
		return out, nil, sweeps, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown experiment %q", name)
}

// experimentUnit runs one experiment as a checked unit.
func experimentUnit(name string, fb *trace.Dataset, model onlinetime.Model, seed int64, workers int) unit {
	u := unit{name: "experiment/" + name}
	data, shares, sweeps, err := runExperiment(name, fb, model, seed, workers)
	if err != nil {
		u.failf("%v", err)
		return u
	}
	u.data = data
	u.checkFractions(shares)
	for _, s := range sweeps {
		u.checkSweep(s)
	}
	return u
}

// figureUnit wraps one regenerated figure as a checked unit.
func figureUnit(id string, f plot.Figure, err error) unit {
	u := unit{name: id}
	if err != nil {
		u.failf("%v", err)
		return u
	}
	u.data = f.Series
	switch id[:4] {
	case "fig2":
		u.encode() // finiteness
	case "fig8", "fig9":
		u.checkFigure(f, false)
	default:
		u.checkFigure(f, true)
	}
	return u
}

// figureDatasets synthesizes the suite's two datasets at paper scale, as
// dosn.NewSuite does.
func figureDatasets(synth func(name string, users int, seed int64) (*trace.Dataset, error)) (fb, tw *trace.Dataset, err error) {
	if fb, err = synth("facebook", trace.PaperFacebookUsers, 1); err != nil {
		return nil, nil, err
	}
	tw, err = synth("twitter", trace.PaperTwitterUsers, 2)
	return fb, tw, err
}

// failedFigureUnits reports every figure and experiment as failed by err.
func failedFigureUnits(err error) []unit {
	var units []unit
	for _, id := range (&core.Suite{}).FigureIDs() {
		units = append(units, figureUnit(id, plot.Figure{}, err))
	}
	for _, name := range experimentNames {
		u := unit{name: "experiment/" + name}
		u.failf("%v", err)
		units = append(units, u)
	}
	return units
}

// figuresPass regenerates every figure through core.Suite.Figure at paper
// scale, then runs the extension experiments. Set-up is the two datasets
// plus fig2, the first result.
func figuresPass(seed int64, workers int) passOutput {
	start := time.Now()
	var out passOutput
	fb, tw, err := figureDatasets(func(name string, users int, seed int64) (*trace.Dataset, error) {
		return trace.SynthesizeCalibrated(name, users, seed, trace.PaperMinActivity)
	})
	if err != nil {
		out.units = failedFigureUnits(err)
		return out
	}
	suite := &core.Suite{Facebook: fb, Twitter: tw, Opts: core.Options{Repeats: figureRepeats, Seed: seed, Workers: workers}}
	for i, id := range suite.FigureIDs() {
		f, err := suite.Figure(id)
		out.units = append(out.units, figureUnit(id, f, err))
		if i == 0 {
			out.setupNS = time.Since(start).Nanoseconds()
		}
	}
	for _, name := range experimentNames {
		out.units = append(out.units, experimentUnit(name, fb, onlinetime.Sporadic{}, seed, workers))
	}
	out.wallNS = time.Since(start).Nanoseconds()
	out.digest = digest(out.units)
	return out
}
