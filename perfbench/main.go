// Command perfbench runs one workload of the repository's benchmark and
// prints its metrics as JSON on the last line of standard output. run.py
// builds it and passes the benchmark's arguments through:
//
//	perfbench -workload W -seed N -seconds S -trace 0|1 [-out DIR]
//
// With -trace 0 it repeats untraced passes of the workload until S seconds
// have passed and reports the end-to-end metrics as medians over the
// passes. With -trace 1 it runs one untraced pass, one fully serial pass
// and one traced single-threaded replay, and reports the per-layer metrics;
// the Chrome trace and the metrics are also written to DIR. Every pass
// checks its outputs: value invariants for every seed and, for seed 42, a
// pinned sha256 of the whole output.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"dosn/internal/interval"
)

// pinnedSeed is the seed whose outputs are pinned by digest.
const pinnedSeed = 42

// pinnedDigests is the sha256 of each workload's output at pinnedSeed:
// RunManifest.MarshalCanonical for the matrix workloads, the canonical
// unit encodings for figures.
var pinnedDigests = map[string]string{
	"matrix-paper": "54bdfe78b6399b74a93aed9de4cbb3ae9195a9b0875302887e4df3e9cbbc888e",
	"matrix-scale": "5ad41f047082dce070b03f026c5dba906cac15fde5a8c45f06a07a66f72cc1e6",
	"figures":      "e4e935eed456425b5449cf51c5f26d42672a8a4fdfefd5b0d999de8db93a3fb0",
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", pinnedSeed, "workload seed (the matrix root seed / figure seed)")
	seconds := flag.Float64("seconds", 10, "measure untraced passes for this long")
	traced := flag.Int("trace", 0, "1 = run the traced replay and report per-layer metrics")
	out := flag.String("out", ".", "directory for the trace and metrics files")
	source := flag.String("source", "", "commit or source digest recorded in the fingerprint")
	child := flag.Bool("pass", false, "run one untraced pass and print its figures (used by the pass loop)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *child {
		if err := json.NewEncoder(os.Stdout).Encode(runPass(w, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fp := fingerprint(*seed, *source)
	var res map[string]any
	var problems []string
	if *traced == 1 {
		res, problems, err = runTrace(w, *seed, *out, fp)
	} else {
		res, problems, err = runPasses(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	for _, line := range []any{map[string]any{"fingerprint": fp}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

// verify counts the units of a pass that failed a check, folding in the
// pinned digest at pinnedSeed: a digest mismatch fails every unit.
func verify(w workload, seed int64, p passOutput) (failed int, problems []string) {
	for _, u := range p.units {
		if len(u.problems) > 0 {
			failed++
			problems = append(problems, u.problems...)
		}
	}
	if pin := pinnedDigests[w.name]; seed == pinnedSeed && p.digest != pin {
		problems = append(problems, fmt.Sprintf("%s: output digest %s, pinned %s", w.name, p.digest, pin))
		failed = len(p.units)
	}
	return failed, problems
}

// passFigures is what one pass process reports.
type passFigures struct {
	WallS     float64  `json:"wall_s"`
	SetupS    float64  `json:"setup_s"`
	CPUS      float64  `json:"cpu_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`
}

// runPass runs one untraced pass in this process.
func runPass(w workload, seed int64) passFigures {
	cpu0 := cpuNS()
	p := w.pass(seed, 0)
	cpu := cpuNS() - cpu0
	failed, problems := verify(w, seed, p)
	return passFigures{
		WallS: float64(p.wallNS) / 1e9, SetupS: float64(p.setupNS) / 1e9, CPUS: float64(cpu) / 1e9,
		PeakRSSMB: peakRSSMB(), Attempted: len(p.units), Failed: failed, Problems: problems,
	}
}

// runPasses starts one process per untraced pass, so that each pass's peak
// RSS is its own process's high-water mark, until d has passed, and
// reports the median of each end-to-end metric over the passes.
func runPasses(w workload, seed int64, d time.Duration) (map[string]any, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var wall, setup, cpu, rss []float64
	attempted, failed := 0, 0
	var problems []string
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		cmd := exec.Command(self, "-pass", "-workload", w.name, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		var p passFigures
		if err := json.Unmarshal(out, &p); err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		wall, setup, cpu, rss = append(wall, p.WallS), append(setup, p.SetupS), append(cpu, p.CPUS), append(rss, p.PeakRSSMB)
		attempted += p.Attempted
		failed += p.Failed
		problems = append(problems, p.Problems...)
		fmt.Fprintf(os.Stderr, "pass %d: wall %.3fs setup %.3fs cpu %.3fs rss %.1fMB failed %d/%d\n",
			i+1, p.WallS, p.SetupS, p.CPUS, p.PeakRSSMB, p.Failed, p.Attempted)
	}
	return map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics": map[string]any{
			"wall_s":      metric(median(wall), "s"),
			"setup_s":     metric(median(setup), "s"),
			"cpu_s":       metric(median(cpu), "s"),
			"peak_rss_mb": metric(median(rss), "MB"),
			"ok_frac":     metric(float64(attempted-failed)/float64(attempted), "ratio"),
		},
	}, problems, nil
}

// metric is one reported value with its unit.
func metric(v float64, unit string) map[string]any { return map[string]any{"value": v, "unit": unit} }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runTrace runs the untraced pass (for the allocation counts and the
// parallel wall time), the fully serial pass, and the traced single-threaded
// replay, checks that all three agree unit by unit, and derives the
// per-layer metrics from the replay's spans.
func runTrace(w workload, seed int64, outDir string, fp map[string]any) (map[string]any, []string, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := w.pass(seed, 0)
	runtime.ReadMemStats(&m1)
	failed, problems := verify(w, seed, p)

	runtime.GC()
	serial := w.pass(seed, 1)
	if serial.digest != p.digest {
		problems = append(problems, fmt.Sprintf("serial pass digest %s differs from the parallel pass's %s", serial.digest, p.digest))
		failed = len(p.units)
	}

	runtime.GC()
	rt := newReplayTrace()
	start := time.Now()
	units := w.replay(seed, rt)
	replayNS := time.Since(start).Nanoseconds()
	for i := range p.units {
		if i >= len(units) || len(units[i].problems) > 0 || !sameData(&units[i], &p.units[i]) {
			problems = append(problems, fmt.Sprintf("traced replay of %s differs from the untraced pass", p.units[i].name))
			if len(p.units[i].problems) == 0 && failed < len(p.units) {
				failed++
			}
		}
	}
	ops, opNS := intervalPass(rt, 200e6)

	byName, byKind := rt.rec.stats(false), rt.rec.stats(true)
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	synth := byName["trace.SynthesizeCalibrated"]
	build := byName["onlinetime.BuildTable"]
	build.ns += byName["onlinetime.ScheduleAll"].ns
	build.count += byName["onlinetime.ScheduleAll"].count
	run := byName["core.Run"]
	var dsBytes int
	for _, ds := range rt.datasets {
		dsBytes += ds.MemoryBytes()
	}
	var friendNS, friendCalls, dhtNS, dhtCalls int64
	for _, st := range rt.friend {
		friendNS, friendCalls = friendNS+st.ns.Load(), friendCalls+st.calls.Load()
	}
	for _, st := range rt.dht {
		dhtNS, dhtCalls = dhtNS+st.ns.Load(), dhtCalls+st.calls.Load()
	}
	selectNS := func(name string) float64 {
		if st, ok := rt.friend[name]; ok {
			return per(st.ns.Load(), st.calls.Load())
		}
		return 0
	}
	buildPerUser := func(kind string) float64 {
		st := byKind["onlinetime.BuildTable/"+kind]
		return per(st.ns, st.n)
	}
	metrics := map[string]any{
		"trace.synth_s":                   metric(secs(synth.ns), "s"),
		"trace.activities":                metric(float64(synth.n), "count"),
		"trace.ns_per_activity":           metric(per(synth.ns, synth.n), "ns"),
		"trace.dataset_mb":                metric(float64(dsBytes)/(1<<20), "MB"),
		"onlinetime.build_s":              metric(secs(build.ns), "s"),
		"onlinetime.tables":               metric(float64(build.count), "count"),
		"onlinetime.sporadic_ns_per_user": metric(buildPerUser("sporadic"), "ns"),
		"onlinetime.fixed_ns_per_user":    metric(buildPerUser("fixed"), "ns"),
		"onlinetime.random_ns_per_user":   metric(buildPerUser("random"), "ns"),
		"core.run_s":                      metric(secs(run.ns), "s"),
		"core.runs":                       metric(float64(run.count), "count"),
		"core.ns_per_user":                metric(per(run.ns, run.n), "ns"),
		"core.self_s":                     metric(secs(run.selfNS), "s"),
		"replica.select_s":                metric(secs(friendNS), "s"),
		"replica.select_calls":            metric(float64(friendCalls), "count"),
		"replica.maxav_ns":                metric(selectNS("MaxAv"), "ns"),
		"replica.mostactive_ns":           metric(selectNS("MostActive"), "ns"),
		"replica.random_ns":               metric(selectNS("Random"), "ns"),
		"dht.ring_s":                      metric(secs(byName["dht.BuildRing"].ns), "s"),
		"dht.select_ns":                   metric(per(dhtNS, dhtCalls), "ns"),
		"dht.select_calls":                metric(float64(dhtCalls), "count"),
		"interval.ns_per_op":              metric(per(opNS, ops), "ns"),
		"interval.ops":                    metric(float64(ops), "count"),
		"interval.bytes_per_op":           metric(float64(2*unsafe.Sizeof(interval.Bitmap{})), "B"),
		"osn.protocol_s":                  metric(secs(byKind["core.experiment/protocol"].ns), "s"),
		"harness.serial_s":                metric(secs(serial.wallNS), "s"),
		"harness.speedup":                 metric(per(serial.wallNS, p.wallNS), "ratio"),
		"harness.overhead_s":              metric(secs(serial.wallNS-rt.rec.topLevelNS()), "s"),
		"go.alloc_mb":                     metric(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB"),
		"go.gc_cycles":                    metric(float64(m1.NumGC-m0.NumGC), "count"),
		"bench.trace_overhead":            metric(per(replayNS, serial.wallNS), "ratio"),
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	meta := map[string]any{"workload": w.name, "seed": seed, "fingerprint": fp}
	if err := rt.rec.writeChromeTrace(base+".trace.json", meta); err != nil {
		return nil, nil, err
	}
	ladder := ladderTable(w.name, byName, friendNS+dhtNS, replayNS)
	fmt.Fprint(os.Stderr, ladder)
	b, err := json.MarshalIndent(map[string]any{"metrics": metrics, "fingerprint": fp, "problems": problems, "ladder": ladder}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	res := map[string]any{
		"correct":   failed == 0,
		"attempted": len(p.units),
		"failed":    failed,
		"metrics":   metrics,
	}
	return res, problems, os.WriteFile(base+".metrics.json", b, 0o644)
}

// ladderTable splits the replay's wall time by layer self time.
func ladderTable(name string, byName map[string]layerStat, selectNS, replayNS int64) string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].selfNS > byName[names[j]].selfNS })
	var b strings.Builder
	fmt.Fprintf(&b, "layer ladder of the traced replay of %s (%.2f s wall)\n", name, float64(replayNS)/1e9)
	fmt.Fprintf(&b, "%-32s %8s %10s %7s\n", "span", "calls", "self_s", "share")
	row := func(n, calls string, ns int64) {
		fmt.Fprintf(&b, "%-32s %8s %10.3f %6.1f%%\n", n, calls, float64(ns)/1e9, 100*float64(ns)/float64(replayNS))
	}
	rest := replayNS - selectNS
	for _, n := range names {
		st := byName[n]
		rest -= st.selfNS
		row(n, fmt.Sprint(st.count), st.selfNS)
	}
	row("policy Select (inside core.Run)", "", selectNS)
	row("(outside every span)", "", rest)
	return b.String()
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the machine and build a result came from.
func fingerprint(seed int64, source string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       seed,
		"source":     source,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
