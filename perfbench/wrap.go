package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// selectStat accumulates the Select calls of one policy. Select runs on the
// sweep's worker goroutine, so the counters are atomic.
type selectStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// timedPolicy times every Select of the wrapped policy. The engine reads a
// policy only through Name, Select and replica.TraitsOf, and Traits forwards
// the wrapped policy's declared (or default) traits, so wrapping changes no
// result bit.
type timedPolicy struct {
	replica.Policy
	stat *selectStat
}

func (p timedPolicy) Traits() replica.Traits { return replica.TraitsOf(p.Policy) }

func (p timedPolicy) Select(in replica.Input, rng *rand.Rand) []socialgraph.UserID {
	start := time.Now()
	out := p.Policy.Select(in, rng)
	p.stat.ns.Add(time.Since(start).Nanoseconds())
	p.stat.calls.Add(1)
	return out
}

// selectStats keys Select counters by policy name.
type selectStats map[string]*selectStat

func (s selectStats) wrap(ps []replica.Policy) []replica.Policy {
	out := make([]replica.Policy, len(ps))
	for i, p := range ps {
		st, ok := s[p.Name()]
		if !ok {
			st = &selectStat{}
			s[p.Name()] = st
		}
		out[i] = timedPolicy{Policy: p, stat: st}
	}
	return out
}

// totalNS is the Select time of every wrapped policy so far.
func (s selectStats) totalNS() int64 {
	var ns int64
	for _, st := range s {
		ns += st.ns.Load()
	}
	return ns
}

// timedModel records a span around every schedule build of the wrapped
// online-time model and hands the first table built per dataset to the
// interval kernel pass; Name and the randomness it draws are the wrapped
// model's own.
type timedModel struct {
	onlinetime.Model
	rt *replayTrace
}

func (m timedModel) BuildTable(d *trace.Dataset, rng *rand.Rand, workers int) *onlinetime.Table {
	var t *onlinetime.Table
	m.rt.rec.do("onlinetime.BuildTable", modelKind(m.Model), int64(d.NumUsers()), func() {
		t = m.Model.BuildTable(d, rng, workers)
	})
	m.rt.keepTable(d, t)
	return t
}

func (m timedModel) ScheduleAll(d *trace.Dataset, rng *rand.Rand) []interval.Set {
	var sets []interval.Set
	m.rt.rec.do("onlinetime.ScheduleAll", modelKind(m.Model), int64(d.NumUsers()), func() {
		sets = m.Model.ScheduleAll(d, rng)
	})
	return sets
}

// modelKind names the model family a per-user build cost is reported for.
func modelKind(m onlinetime.Model) string {
	switch v := m.(type) {
	case timedModel:
		return modelKind(v.Model)
	case onlinetime.Sporadic:
		return "sporadic"
	case onlinetime.FixedLength:
		return "fixed"
	case onlinetime.RandomLength:
		return "random"
	default:
		return "other"
	}
}
