package harness

import (
	"testing"

	"dosn/internal/obs"
)

// runWithTelemetry runs spec under opts with a fresh collector and returns
// the collector's report.
func runWithTelemetry(t *testing.T, spec MatrixSpec, opts RunOptions) *obs.Report {
	t.Helper()
	opts.Telemetry = obs.NewCollector()
	if _, err := Run(spec, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return opts.Telemetry.Report("test")
}

// phaseCalls sums the calls of the named phase over cells.
func phaseCalls(cells []obs.CellReport, name string) int64 {
	var n int64
	for _, c := range cells {
		for _, p := range c.Phases {
			if p.Name == name {
				n += p.Calls
			}
		}
	}
	return n
}

// TestReportHeaderIsResolved pins that a report of a run whose options were
// left at their zero defaults still says how the run executed: the header
// carries the knobs Run resolved, not the caller's zeros.
func TestReportHeaderIsResolved(t *testing.T) {
	spec := testSpec()
	rep := runWithTelemetry(t, spec, RunOptions{})
	want := RunOptions{}.fill(len(spec.fill().Cells()))
	if rep.Workers < 1 || rep.CoreWorkers < 1 {
		t.Fatalf("report header not resolved: workers=%d core_workers=%d", rep.Workers, rep.CoreWorkers)
	}
	if rep.Workers != want.Workers || rep.CoreWorkers != want.CoreWorkers || rep.ShardSize != want.ShardSize {
		t.Errorf("report header workers=%d core_workers=%d shard_size=%d, want %d/%d/%d",
			rep.Workers, rep.CoreWorkers, rep.ShardSize, want.Workers, want.CoreWorkers, want.ShardSize)
	}
}

// TestCachePhasesChargeComputeOnce pins that shared-cache waits are not
// charged as compute: across a run, the plain synthesize and schedule-build
// records count exactly the computations that happened, and every other
// cell's lookup is a /wait record.
func TestCachePhasesChargeComputeOnce(t *testing.T) {
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	synthesized := obs.C("trace.datasets_synthesized")
	before := synthesized.Value()
	rep := runWithTelemetry(t, spec, RunOptions{Workers: 2, NoPrefetch: true})
	cells := int64(len(rep.Cells))

	if got, want := phaseCalls(rep.Cells, "synthesize"), synthesized.Value()-before; got != want || got != 1 {
		t.Errorf("plain synthesize records = %d, want %d (datasets synthesized) = 1", got, want)
	}
	if got := phaseCalls(rep.Cells, "synthesize/wait"); got != cells-1 {
		t.Errorf("synthesize/wait records = %d, want %d", got, cells-1)
	}
	pairs := int64(len(spec.Datasets) * len(spec.Models))
	if got := phaseCalls(rep.Cells, "schedule-build"); got != pairs {
		t.Errorf("plain schedule-build records = %d, want %d (distinct dataset×model pairs)", got, pairs)
	}
	if got := phaseCalls(rep.Cells, "schedule-build/wait"); got != cells-pairs {
		t.Errorf("schedule-build/wait records = %d, want %d", got, cells-pairs)
	}
	for i, c := range rep.Cells {
		if phaseCalls(rep.Cells[i:i+1], "sweep/worker") < 1 {
			t.Errorf("cell %s has no sweep/worker record: %+v", c.Cell, c.Phases)
		}
	}
}
