package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRecorderSelfTime: a span's self time is its duration minus its
// recorded children and its aggregated child time.
func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "core.Run", start: 0, end: 100, parent: -1, aggNS: 20},
		{name: "onlinetime.BuildTable", kind: "fixed", start: 10, end: 40, parent: 0, n: 6},
		{name: "onlinetime.BuildTable", kind: "random", start: 50, end: 60, parent: 0, n: 4},
		{name: "trace.SynthesizeCalibrated", start: 100, end: 130, parent: -1},
	}}
	by := r.stats(false)
	if got := by["core.Run"].selfNS; got != 100-30-10-20 {
		t.Errorf("core.Run self = %d, want 40", got)
	}
	if got := by["onlinetime.BuildTable"]; got.count != 2 || got.ns != 40 || got.n != 10 || got.selfNS != 40 {
		t.Errorf("BuildTable stat = %+v", got)
	}
	if got := r.stats(true)["onlinetime.BuildTable/fixed"].ns; got != 30 {
		t.Errorf("fixed BuildTable = %d ns, want 30", got)
	}
	if got := r.topLevelNS(); got != 130 {
		t.Errorf("top-level = %d ns, want 130", got)
	}
}

// TestRecorderNestingAndChromeTrace: live spans nest under the innermost
// open span, carry the run id, and round-trip through the Chrome
// trace-event file.
func TestRecorderNestingAndChromeTrace(t *testing.T) {
	r := newRecorder()
	r.setRun(3)
	outer := r.begin("core.Run", "sporadic", 0)
	r.do("onlinetime.BuildTable", "sporadic", 5, func() {})
	r.end(outer, 0)
	r.do("dht.BuildRing", "", 0, func() {})
	if r.spans[1].parent != outer || r.spans[2].parent != -1 || r.spans[1].run != 3 {
		t.Fatalf("spans = %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := r.writeChromeTrace(path, map[string]any{"workload": "x"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Name != "onlinetime.BuildTable" || doc.TraceEvents[1].Args["parent"] != float64(0) {
		t.Fatalf("trace events = %+v", doc.TraceEvents)
	}
}
