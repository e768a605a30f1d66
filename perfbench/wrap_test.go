package main

import (
	"reflect"
	"testing"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/harness"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

const testUsers = 1500

func testDatasets(t *testing.T) (fb, tw *trace.Dataset) {
	t.Helper()
	fb, err := trace.SynthesizeCalibrated("facebook", testUsers, 1, trace.PaperMinActivity)
	if err != nil {
		t.Fatal(err)
	}
	tw, err = trace.SynthesizeCalibrated("twitter", testUsers, 2, trace.PaperMinActivity)
	if err != nil {
		t.Fatal(err)
	}
	return fb, tw
}

// TestWrappersAreTransparent: core.Run returns bit-identical results with
// and without the timing wrappers, for every policy trait combination and
// every model family.
func TestWrappersAreTransparent(t *testing.T) {
	fb, _ := testDatasets(t)
	ring, err := dht.BuildRing(fb.NumUsers(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	social, err := dht.NewArchitecture(dht.ArchSocialDHT, ring, fb.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	policies := append(replica.DefaultPolicies(), replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity})
	policies = append(policies, social.Policies()...)
	models := []onlinetime.Model{onlinetime.Sporadic{}, onlinetime.FixedLength{Hours: 4}, onlinetime.RandomLength{}}
	for _, m := range models {
		for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
			cfg := core.Config{Dataset: fb, Model: m, Mode: mode, Policies: policies, MaxDegree: 6, UserDegree: 10, Repeats: 2, Seed: 7}
			plain, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt := newReplayTrace()
			cfg.Model, cfg.Policies = rt.model(m), rt.friend.wrap(policies)
			wrapped, err := rt.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("%s/%s: wrapped core.Run differs from plain", m.Name(), mode)
			}
			if rt.friend["MaxAv"].calls.Load() == 0 || len(rt.rec.spans) < 3 {
				t.Errorf("%s/%s: wrappers recorded nothing", m.Name(), mode)
			}
		}
	}
}

// TestReplayedFiguresMatchSuite: the replay's wrapped core.Run calls
// reproduce core.Suite.Figure's series exactly, for every kind of figure.
func TestReplayedFiguresMatchSuite(t *testing.T) {
	fb, tw := testDatasets(t)
	opts := core.Options{Repeats: 2, Seed: 11, UserDegree: 10, MaxDegree: 10}
	suite := &core.Suite{Facebook: fb, Twitter: tw, Opts: opts}
	for _, id := range []string{"fig2", "fig3b", "fig4a", "fig6c", "fig7d", "fig8b", "fig9b", "fig11a"} {
		want, err := suite.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayFigure(id, fb, tw, opts, newReplayTrace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Series, got.Series) {
			t.Errorf("%s: replayed series differ from Suite.Figure", id)
		}
	}
}

// TestWrappedArchComparison: RunArchComparison is bit-identical with the
// timing model wrapper.
func TestWrappedArchComparison(t *testing.T) {
	fb, _ := testDatasets(t)
	cfg := core.ArchConfig{Dataset: fb, MaxDegree: 5, Repeats: 2, Seed: 3}
	plain, err := core.RunArchComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := newReplayTrace()
	cfg.Model, cfg.Workers = rt.model(onlinetime.Sporadic{}), 1
	wrapped, err := core.RunArchComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Error("wrapped RunArchComparison differs from plain")
	}
}

// TestMatrixReplayMatchesHarness: the traced replay of a matrix, with its
// mirrored schedule seeds, reproduces harness.Run's cells exactly, and the
// output checks pass.
func TestMatrixReplayMatchesHarness(t *testing.T) {
	spec := harness.PaperMatrix(testUsers)
	spec.Repeats = 2
	spec.RootSeed = 5
	spec.Architectures = []string{dht.ArchFriendReplica, dht.ArchRandomDHT}
	p := matrixPass(spec, 0)
	units := matrixReplay(spec, newReplayTrace())
	if len(units) != len(p.units) {
		t.Fatalf("replay has %d units, pass %d", len(units), len(p.units))
	}
	for i := range units {
		if len(p.units[i].problems) > 0 || len(units[i].problems) > 0 {
			t.Errorf("%s: problems %v / %v", units[i].name, p.units[i].problems, units[i].problems)
		}
		if !sameData(&units[i], &p.units[i]) {
			t.Errorf("%s: replayed cell differs from harness.Run", units[i].name)
		}
	}
}

// TestChecksCatchViolations: the output invariants reject non-finite
// values, out-of-range shares, availability falling with the degree and
// MaxAv below Random.
func TestChecksCatchViolations(t *testing.T) {
	policies := []string{"MaxAv", "Random"}
	cases := map[string]map[string][][]float64{
		"ok":          {"availability": {{0.1, 0.2}, {0.1, 0.15}}, "delay_hours": {{3, 2}, {3, 4}}},
		"nan":         {"delay_hours": {{3, nan()}, {3, 4}}},
		"range":       {"aod_time": {{0.1, 1.2}, {0.1, 0.2}}},
		"decreasing":  {"availability": {{0.1, 0.2}, {0.1, 0.09}}},
		"maxav-below": {"availability": {{0.1, 0.2}, {0.1, 0.3}}},
	}
	for name, grids := range cases {
		u := unit{name: name}
		u.checkGrids(policies, grids, true)
		if (name == "ok") != (len(u.problems) == 0) {
			t.Errorf("%s: problems %v", name, u.problems)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
