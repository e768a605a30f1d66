package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNilSafety pins the zero-cost-when-off contract: every Collector,
// CellObs, and Progress method must be callable on a nil receiver.
func TestNilSafety(t *testing.T) {
	var c *Collector
	c.AttachEvents(io.Discard)
	c.AttachProgress(nil)
	c.SetRun(5, 1, 1, 0)
	if rep := c.Report("x"); rep != nil {
		t.Fatal("nil collector must produce a nil report")
	}
	o := c.StartCell("k", 0)
	if o != nil {
		t.Fatal("nil collector must hand out nil cell obs")
	}
	o.Phase("p", time.Millisecond)
	o.MarkScheduleCacheHit()
	o.Done()

	var p *Progress
	p.SetTotal(1)
	p.SetPhase("x")
	p.CellDone()
	p.Stop()
}

// TestCollectorReportAndEvents drives a two-cell run through the collector
// and checks the report structure and the JSONL event stream.
func TestCollectorReportAndEvents(t *testing.T) {
	var events bytes.Buffer
	c := NewCollector()
	c.AttachEvents(&events)
	c.SetRun(2, 2, 2, 64)

	a := c.StartCell("cell-a", 0)
	a.Phase("synthesize", 4*time.Millisecond)
	a.Phase("sweep/worker", 2*time.Millisecond)
	a.Phase("sweep/worker", 3*time.Millisecond)
	a.Phase("sweep/reduce", time.Millisecond)
	a.Phase("sweep", 5*time.Millisecond)
	a.Done()

	b := c.StartCell("cell-b", 1)
	b.MarkScheduleCacheHit()
	b.Phase("synthesize/wait", time.Millisecond)
	b.Done()

	rep := c.Report("test-run")
	if rep.Schema != 2 || rep.Command != "test-run" || rep.Workers != 2 || rep.CoreWorkers != 2 || rep.ShardSize != 64 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 cell reports, got %d", len(rep.Cells))
	}
	ca := rep.Cells[0]
	if ca.Cell != "cell-a" {
		t.Fatalf("cells not in start order: %+v", rep.Cells)
	}
	var phases []string
	for _, p := range ca.Phases {
		phases = append(phases, p.Name)
	}
	if strings.Join(phases, ",") != "synthesize,sweep/worker,sweep/reduce,sweep" {
		t.Fatalf("phase order wrong: %v", phases)
	}
	if w := ca.Phases[1]; w.Calls != 2 || w.MS != 5 || w.MaxMS != 3 {
		t.Fatalf("worker busy accounting wrong: %+v", w)
	}
	// 5 ms busy over 2 core workers × 5 ms sweep.
	if ca.SweepUtilization != 0.5 {
		t.Fatalf("sweep utilization = %v, want 0.5", ca.SweepUtilization)
	}
	if !rep.Cells[1].ScheduleCacheHit {
		t.Fatal("cache hit lost")
	}

	// The event stream must be valid JSONL with the documented lifecycle.
	var kinds []string
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, e.Ev)
	}
	want := "run_start,cell_start,phase,phase,phase,phase,phase,cell_done,cell_start,phase,cell_done,run_done"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("event stream = %s, want %s", got, want)
	}

	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// TestPhaseAccumulates pins that repeated phases (per-shard sweep batches,
// per-worker busy spans) fold into one entry with a call count and the
// longest single call.
func TestPhaseAccumulates(t *testing.T) {
	c := NewCollector()
	o := c.StartCell("k", 0)
	o.Phase("sweep/shards", 2*time.Millisecond)
	o.Phase("sweep/shards", 3*time.Millisecond)
	o.Phase("sweep/shards", time.Millisecond)
	o.Done()
	rep := c.Report("")
	if len(rep.Cells[0].Phases) != 1 {
		t.Fatalf("phases did not accumulate: %+v", rep.Cells[0].Phases)
	}
	p := rep.Cells[0].Phases[0]
	if p.Calls != 3 || p.MS != 6 || p.MaxMS != 3 {
		t.Fatalf("accumulation wrong: %+v", p)
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, 4)
	p.SetPhase("cell-a · sweep")
	p.CellDone()
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	for _, want := range []string{"1/4 cells", "cell-a · sweep", "heap ", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q: %q", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Stop must end the line with a newline: %q", out)
	}
}

// TestServeDebug pins the debug endpoint: expvar with published obs
// metrics, and the pprof index.
func TestServeDebug(t *testing.T) {
	C("obs_test.debug_probe").Inc()
	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, "dosn_counters") || !strings.Contains(vars, "obs_test.debug_probe") {
		t.Fatalf("/debug/vars missing obs counters: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong: %.200s", idx)
	}

	// A second endpoint in the same process must not panic on re-publish.
	d2, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
}
