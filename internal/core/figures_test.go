package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dosn/internal/plot"
	"dosn/internal/trace"
)

func testSuite(t testing.TB) *Suite {
	t.Helper()
	fb := trace.DefaultFacebookConfig(400)
	fb.MeanDegree = 12
	fb.SigmaDegree = 0.6
	fb.Seed = 33
	tw := trace.DefaultTwitterConfig(400)
	tw.MeanDegree = 12
	tw.SigmaDegree = 0.6
	tw.Seed = 44
	return &Suite{
		Facebook: trace.MustSynthesize(fb),
		Twitter:  trace.MustSynthesize(tw),
		Opts:     Options{MaxDegree: 6, UserDegree: 10, Repeats: 1, Seed: 5},
	}
}

func TestStandardPanelsCoverPaperFigures(t *testing.T) {
	panels := StandardPanels()
	byFig := map[string]int{}
	for _, p := range panels {
		byFig[strings.TrimRight(p.ID, "abcd")]++
	}
	want := map[string]int{"fig3": 4, "fig4": 2, "fig5": 4, "fig6": 4, "fig7": 4, "fig10": 4, "fig11": 4}
	for fig, n := range want {
		if byFig[fig] != n {
			t.Errorf("figure %s has %d panels, want %d", fig, byFig[fig], n)
		}
	}
	seen := map[string]bool{}
	for _, p := range panels {
		if seen[p.ID] {
			t.Errorf("duplicate panel id %s", p.ID)
		}
		seen[p.ID] = true
		if p.Dataset != "facebook" && p.Dataset != "twitter" {
			t.Errorf("panel %s has unknown dataset %q", p.ID, p.Dataset)
		}
	}
}

func TestSuiteFigureIDsResolve(t *testing.T) {
	s := testSuite(t)
	ids := s.FigureIDs()
	if len(ids) < 30 {
		t.Fatalf("suite lists only %d figures", len(ids))
	}
	// Spot-check one panel id per figure family to keep the test fast.
	for _, id := range []string{"fig2", "fig3a", "fig4b", "fig5c", "fig7d", "fig10a", "fig11b"} {
		fig, err := s.Figure(id)
		if err != nil {
			t.Fatalf("Figure(%s): %v", id, err)
		}
		if fig.ID != id || len(fig.Series) == 0 {
			t.Errorf("Figure(%s) = %q with %d series", id, fig.ID, len(fig.Series))
		}
	}
}

func TestSuiteUnknownFigure(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Figure("fig99"); err == nil {
		t.Error("unknown figure must error")
	}
}

// TestSuiteMissingDataset pins that every figure family reports a missing
// dataset by name instead of dereferencing it.
func TestSuiteMissingDataset(t *testing.T) {
	full := testSuite(t)
	for _, missing := range []string{"facebook", "twitter"} {
		s := &Suite{Facebook: full.Facebook, Twitter: full.Twitter, Opts: full.Opts}
		ids := []string{"fig2"}
		if missing == "facebook" {
			s.Facebook = nil
			ids = append(ids, "fig3a", "fig8a", "fig9a")
		} else {
			s.Twitter = nil
			ids = append(ids, "fig10a")
		}
		for _, id := range ids {
			_, err := s.Figure(id)
			want := fmt.Sprintf("figure %s: dataset %q not loaded", id, missing)
			if err == nil || err.Error() != want {
				t.Errorf("Figure(%s) with %s missing: err = %v, want %q", id, missing, err, want)
			}
		}
	}
}

func TestDegreeDistributionFigure(t *testing.T) {
	s := testSuite(t)
	fig := DegreeDistributionFigure(s.Facebook, s.Twitter)
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, series := range fig.Series {
		total := 0.0
		for _, y := range series.Y {
			total += y
		}
		if int(total) != 400 {
			t.Errorf("%s histogram sums to %v, want 400 users", series.Label, total)
		}
	}
}

func TestSessionLengthFigureShape(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig8a")
	if err != nil {
		t.Fatalf("fig8a: %v", err)
	}
	if !fig.LogX || fig.ID != "fig8a" {
		t.Errorf("figure meta = %+v", fig)
	}
	// Fig. 8a: availability rises with session length for every policy;
	// compare the shortest against the longest session.
	for _, series := range fig.Series {
		first, last := series.Y[0], series.Y[len(series.Y)-1]
		if last <= first {
			t.Errorf("%s: availability should grow with session length (%.3f → %.3f)",
				series.Label, first, last)
		}
	}
	// At 100 000 s (≈28 h) sessions cover the whole day: availability ≈ 1.
	for _, series := range fig.Series {
		if series.Y[len(series.Y)-1] < 0.95 {
			t.Errorf("%s: availability at 100000s = %.3f, want ≈1", series.Label, series.Y[len(series.Y)-1])
		}
	}
}

func TestSessionLengthDelayFalls(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig8d")
	if err != nil {
		t.Fatalf("fig8d: %v", err)
	}
	for _, series := range fig.Series {
		first, last := series.Y[0], series.Y[len(series.Y)-1]
		if last >= first {
			t.Errorf("%s: delay should fall with session length (%.2f → %.2f)",
				series.Label, first, last)
		}
	}
}

func TestUserDegreeFigureShape(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig9a")
	if err != nil {
		t.Fatalf("fig9a: %v", err)
	}
	if fig.ID != "fig9a" || len(fig.Series) != 3 {
		t.Fatalf("figure meta: id=%s series=%d", fig.ID, len(fig.Series))
	}
	// Fig. 9a: with all friends allowed as replicas, every policy reaches
	// the same (maximum) availability, and availability grows with degree.
	for i := 1; i < len(fig.Series); i++ {
		a, b := fig.Series[0], fig.Series[i]
		for j := range a.Y {
			if d := a.Y[j] - b.Y[j]; d > 0.02 || d < -0.02 {
				t.Errorf("policies differ at degree %v: %.3f vs %.3f (all-friends budget should equalize)",
					a.X[j], a.Y[j], b.Y[j])
			}
		}
	}
	for _, series := range fig.Series {
		if series.Y[len(series.Y)-1] <= series.Y[0] {
			t.Errorf("%s: availability should grow with user degree", series.Label)
		}
	}
}

func TestRunPanelRendersAndWrites(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig3a")
	if err != nil {
		t.Fatalf("fig3a: %v", err)
	}
	var dat, txt bytes.Buffer
	if err := fig.WriteDat(&dat); err != nil {
		t.Fatalf("WriteDat: %v", err)
	}
	if err := fig.Render(&txt, 60, 12); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(dat.String(), "MaxAv") || !strings.Contains(txt.String(), "MaxAv") {
		t.Error("figure output incomplete")
	}
}

// TestSuiteSharesSweeps pins the suite's sweep memo: a figure read from a
// suite that has already produced every other figure is exactly the figure
// a fresh suite computes, one pass runs each distinct sweep once, changed
// options recompute, and concurrent callers agree.
func TestSuiteSharesSweeps(t *testing.T) {
	base := testSuite(t)
	fresh := func(opts Options) *Suite {
		return &Suite{Facebook: base.Facebook, Twitter: base.Twitter, Opts: opts}
	}

	t.Run("warm equals fresh", func(t *testing.T) {
		warm := fresh(base.Opts)
		ids := warm.FigureIDs()
		for _, id := range ids {
			if _, err := warm.Figure(id); err != nil {
				t.Fatalf("Figure(%s): %v", id, err)
			}
		}
		// Figs. 3/5/6/7 share four sweeps, Fig. 10/11 four, Fig. 4 two,
		// Fig. 8 seven, and Fig. 9 one per populated user degree.
		want := 4 + 4 + 2 + len(SessionLengthSeconds)
		for d := 1; d <= base.Opts.UserDegree; d++ {
			if len(base.Facebook.Graph.UsersWithDegree(d)) > 0 {
				want++
			}
		}
		if got := len(warm.sweeps); got != want {
			t.Errorf("one pass ran %d distinct sweeps, want %d", got, want)
		}
		for _, id := range ids {
			got, err := warm.Figure(id)
			if err != nil {
				t.Fatalf("warm Figure(%s): %v", id, err)
			}
			ref, err := fresh(base.Opts).Figure(id)
			if err != nil {
				t.Fatalf("fresh Figure(%s): %v", id, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("Figure(%s) from a warm suite differs from a fresh suite", id)
			}
		}
	})

	t.Run("options changes recompute", func(t *testing.T) {
		s := fresh(base.Opts)
		before, err := s.Figure("fig3a")
		if err != nil {
			t.Fatalf("fig3a: %v", err)
		}
		for _, c := range []struct {
			name   string
			change func(*Options)
		}{
			{"seed", func(o *Options) { o.Seed++ }},
			{"repeats", func(o *Options) { o.Repeats++ }},
		} {
			s.Opts = base.Opts
			c.change(&s.Opts)
			got, err := s.Figure("fig3a")
			if err != nil {
				t.Fatalf("fig3a after %s change: %v", c.name, err)
			}
			ref, err := fresh(s.Opts).Figure("fig3a")
			if err != nil {
				t.Fatalf("fresh fig3a: %v", err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("after a %s change the suite returned a stale fig3a", c.name)
			}
			if reflect.DeepEqual(got, before) {
				t.Errorf("a %s change left fig3a unchanged; the check is vacuous", c.name)
			}
		}
	})

	t.Run("concurrent callers agree", func(t *testing.T) {
		ids := []string{"fig3a", "fig5a", "fig7a", "fig8b", "fig9a", "fig10a", "fig11a"}
		want := make([]plot.Figure, len(ids))
		ref := fresh(base.Opts)
		for i, id := range ids {
			fig, err := ref.Figure(id)
			if err != nil {
				t.Fatalf("Figure(%s): %v", id, err)
			}
			want[i] = fig
		}
		s := fresh(base.Opts)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range ids {
					i := (k + g) % len(ids)
					fig, err := s.Figure(ids[i])
					if err != nil {
						t.Errorf("Figure(%s): %v", ids[i], err)
						return
					}
					if !reflect.DeepEqual(fig, want[i]) {
						t.Errorf("concurrent Figure(%s) differs from a serial one", ids[i])
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
