package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dosn/internal/core"
	"dosn/internal/plot"
)

// unit is one checked piece of a workload's output: a matrix cell, a figure
// or an experiment. data is its canonical, JSON-encodable content; the
// traced replay must reproduce it exactly.
type unit struct {
	name     string
	data     any
	problems []string
}

func (u *unit) failf(format string, args ...any) {
	u.problems = append(u.problems, u.name+": "+fmt.Sprintf(format, args...))
}

// encode returns the unit's canonical bytes; NaN and ±Inf do not encode, so
// this is also the finiteness check for data with no grid structure.
func (u *unit) encode() []byte {
	b, err := json.Marshal(u.data)
	if err != nil {
		u.failf("encode: %v", err)
	}
	return b
}

// digest is the sha256 of the units' canonical bytes in order.
func digest(units []unit) string {
	h := sha256.New()
	for i := range units {
		h.Write(units[i].encode())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metricIDs pairs the manifest metric identifiers with core's metrics.
var metricIDs = []struct {
	id string
	m  core.Metric
}{
	{"availability", core.MetricAvailability},
	{"aod_time", core.MetricAoDTime},
	{"aod_activity", core.MetricAoDActivity},
	{"delay_hours", core.MetricDelayHours},
	{"effective_replicas", core.MetricEffectiveReplicas},
}

// sweep is a core.Result reduced to its [policy][degree] metric means.
type sweep struct {
	Policies []string               `json:"policies"`
	Degrees  []int                  `json:"degrees"`
	Users    int                    `json:"users"`
	Repeats  int                    `json:"repeats"`
	Metrics  map[string][][]float64 `json:"metrics"`
}

func sweepOf(r *core.Result) sweep {
	s := sweep{Policies: r.Policies, Degrees: r.Degrees, Users: r.Users, Repeats: r.Repeats, Metrics: map[string][][]float64{}}
	for _, mc := range metricIDs {
		grid := make([][]float64, len(r.Policies))
		for pi := range grid {
			grid[pi] = make([]float64, len(r.Degrees))
			for di := range r.Degrees {
				grid[pi][di] = r.Value(pi, di, mc.m)
			}
		}
		s.Metrics[mc.id] = grid
	}
	return s
}

// isFraction reports whether a metric is a share of time or of activities.
func isFraction(id string) bool {
	return id == "availability" || id == "aod_time" || id == "aod_activity"
}

// checkGrids applies the output invariants to [policy][x] grids: every value
// finite, fractions in [0,1], and, when x is the replication degree,
// availability non-decreasing in the degree for every policy and MaxAv's
// availability at least Random's at every degree.
func (u *unit) checkGrids(policies []string, grids map[string][][]float64, byDegree bool) {
	ids := make([]string, 0, len(grids))
	for id := range grids {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for pi, row := range grids[id] {
			for x, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					u.failf("%s[%s][%d] = %v is not finite", id, policies[pi], x, v)
				} else if isFraction(id) && (v < 0 || v > 1) {
					u.failf("%s[%s][%d] = %v outside [0,1]", id, policies[pi], x, v)
				}
			}
		}
	}
	av, ok := grids["availability"]
	if !byDegree || !ok {
		return
	}
	maxAv, random := -1, -1
	for pi, row := range av {
		switch policies[pi] {
		case "MaxAv":
			maxAv = pi
		case "Random":
			random = pi
		}
		for d := 1; d < len(row); d++ {
			if row[d] < row[d-1] {
				u.failf("availability[%s] decreases at degree %d: %v < %v", policies[pi], d, row[d], row[d-1])
			}
		}
	}
	if maxAv >= 0 && random >= 0 {
		for d := range av[maxAv] {
			if av[maxAv][d] < av[random][d] {
				u.failf("MaxAv availability %v below Random's %v at degree %d", av[maxAv][d], av[random][d], d)
			}
		}
	}
}

func (u *unit) checkSweep(s sweep) { u.checkGrids(s.Policies, s.Metrics, true) }

// checkFigure checks a figure's series as one metric's grid; panels plot
// against the replication degree, fig8 and fig9 against other parameters.
func (u *unit) checkFigure(f plot.Figure, byDegree bool) {
	id := "other"
	for _, mc := range metricIDs {
		if f.YLabel == mc.m.String() {
			id = mc.id
		}
	}
	policies := make([]string, len(f.Series))
	grid := make([][]float64, len(f.Series))
	for i, s := range f.Series {
		policies[i], grid[i] = s.Label, s.Y
		if len(s.X) != len(s.Y) {
			u.failf("series %s has %d x values for %d y values", s.Label, len(s.X), len(s.Y))
		}
	}
	u.checkGrids(policies, map[string][][]float64{id: grid}, byDegree)
}

// checkFractions fails the unit for a named share outside [0,1].
func (u *unit) checkFractions(named map[string]float64) {
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := named[n]; !(v >= 0 && v <= 1) {
			u.failf("%s = %v outside [0,1]", n, v)
		}
	}
}

// sameData reports whether two units carry bit-identical content.
func sameData(a, b *unit) bool {
	return string(a.encode()) == string(b.encode())
}
