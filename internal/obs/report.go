package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"slices"
	"sort"
)

// ReportSchema versions the telemetry report layout for downstream tooling.
const ReportSchema = 2

// Report is the telemetry side artifact (-telemetry out.json). It is never
// part of the canonical manifest: manifests are pure functions of
// (spec, seed), reports are wall-clock truth about one execution.
type Report struct {
	Schema      int              `json:"schema"`
	Command     string           `json:"command,omitempty"`
	WallMS      float64          `json:"wall_ms"`
	Workers     int              `json:"workers,omitempty"`
	CoreWorkers int              `json:"core_workers,omitempty"`
	ShardSize   int              `json:"shard_size,omitempty"`
	Cells       []CellReport     `json:"cells,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	Mem         MemSnapshot      `json:"mem"`
}

// CellReport is one cell's execution breakdown. SweepUtilization is how
// well the sweep kept its worker pool busy: sweep/worker busy time over
// (core workers × sweep wall time), so 1.0 means every worker was busy for
// the whole sweep; a sweep/worker max_ms far above its mean exposes a
// straggler.
type CellReport struct {
	Cell             string      `json:"cell"`
	Worker           int         `json:"worker"`
	StartMS          float64     `json:"start_ms"`
	WallMS           float64     `json:"wall_ms"`
	ScheduleCacheHit bool        `json:"schedule_cache_hit,omitempty"`
	Phases           []PhaseStat `json:"phases,omitempty"`
	SweepUtilization float64     `json:"sweep_utilization,omitempty"`
}

// MemSnapshot is the runtime.ReadMemStats summary taken at report time.
type MemSnapshot struct {
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	SysMB        float64 `json:"sys_mb"`
	NumGC        uint32  `json:"num_gc"`
}

// ReadMem snapshots the allocator. Execution-only: deterministic packages
// must not read this back (detrand flags it).
func ReadMem() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{
		HeapAllocMB:  mb(ms.HeapAlloc),
		TotalAllocMB: mb(ms.TotalAlloc),
		SysMB:        mb(ms.Sys),
		NumGC:        ms.NumGC,
	}
}

func mb(b uint64) float64 { return float64(int64(float64(b)/(1<<20)*10+0.5)) / 10 }

// heapMB is the live-heap reading stamped onto events and progress lines.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mb(ms.HeapAlloc)
}

// Report assembles the run's telemetry artifact and emits the run_done
// event. command labels the producing invocation; the execution knobs in
// the header come from SetRun.
func (c *Collector) Report(command string) *Report {
	if c == nil {
		return nil
	}
	wallMS := roundMS(c.sinceMS())
	c.emit(Event{Ev: "run_done", MS: wallMS, HeapMB: heapMB()})

	c.mu.Lock()
	rep := c.header
	cells := slices.Clone(c.cells)
	c.mu.Unlock()

	rep.Schema, rep.Command, rep.WallMS = ReportSchema, command, wallMS
	rep.Counters = nonZero(c.reg.Counters())
	rep.Mem = ReadMem()
	for _, o := range cells {
		rep.Cells = append(rep.Cells, o.report(rep.CoreWorkers))
	}
	// Cells complete in scheduling order; report them in start order so two
	// reports of the same spec diff cleanly.
	sort.SliceStable(rep.Cells, func(i, j int) bool { return rep.Cells[i].StartMS < rep.Cells[j].StartMS })
	return &rep
}

// report snapshots one cell's telemetry, deriving its sweep utilization
// from the run's core-worker count.
func (o *CellObs) report(coreWorkers int) CellReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	cr := CellReport{
		Cell:             o.key,
		Worker:           o.worker,
		StartMS:          roundMS(o.startMS),
		WallMS:           roundMS(o.wallMS),
		ScheduleCacheHit: o.cacheHit,
		Phases:           slices.Clone(o.phases),
	}
	var sweepMS, busyMS float64
	for i := range cr.Phases {
		p := &cr.Phases[i]
		switch p.Name {
		case "sweep":
			sweepMS = p.MS
		case "sweep/worker":
			busyMS = p.MS
		}
		p.MS, p.MaxMS = roundMS(p.MS), roundMS(p.MaxMS)
	}
	if coreWorkers > 0 && sweepMS > 0 {
		cr.SweepUtilization = roundMS(busyMS / (float64(coreWorkers) * sweepMS))
	}
	return cr
}

// nonZero drops zero-valued counters from a snapshot: a matrix run should
// not report the wire counters it never touched.
func nonZero(m map[string]int64) map[string]int64 {
	for name, v := range m {
		if v == 0 {
			delete(m, name)
		}
	}
	return m
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
