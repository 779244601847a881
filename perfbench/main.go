// Command perfbench is the simulator's benchmark. It runs one workload
// serially in this process, with one simulation worker, for a fixed host
// time budget, checks every operation's simulated output, and prints its
// metrics by name with their units; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it repeats the workload until -seconds have passed and
// reports the end-to-end metrics as medians over the repetitions, with
// host time in units of a reference kernel (reference.go). With
// -trace 1 it runs the workload to warm up, then once untraced and once
// traced, and reports the per-layer metrics. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload fig14-mail [-seed 7] [-seconds 30] [-trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/experiment"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// defaultSeed is the workload seed the golden digests were recorded at.
const defaultSeed = 7

// quickStudyPages is the campaign's study volume in quick mode.
const quickStudyPages = 1000

// workloadDef names one workload; cells is nil for the report-small
// campaign, which builds its devices inside the figure functions.
type workloadDef struct {
	name  string
	cells func(sc experiment.Scale) []cell
}

var workloads = []workloadDef{
	{"fig14-mail", func(sc experiment.Scale) []cell { return fig14Cells(sc, workload.MailServer()) }},
	{"fig14-bulk", func(sc experiment.Scale) []cell {
		return fig14Cells(sc, workload.DBServer(), workload.Mobile())
	}},
	{"secure-churn-audited", churnCells},
	{"report-small", nil},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaleFor is the system-level scale of a run; quick mode (the self-test)
// uses the small scale.
func scaleFor(seed int64, quick bool) experiment.Scale {
	sc := experiment.DefaultScale()
	if quick {
		sc = experiment.SmallScale()
	}
	sc.Seed = seed
	return sc
}

// repResult is one repetition of a workload.
type repResult struct {
	wall     time.Duration // the workload's operations, set-up included
	setup    time.Duration // ssd.New + filesys.New + Generator.Fill
	measured time.Duration // the phase sim pages are counted over
	pages    uint64        // simulated host pages written while measured
	liveHeap uint64        // largest live heap at the end of a measured phase
	// wallRefs and measuredRefs are wall and measured in reference
	// units (see reference.go); refs are the kernel's times.
	wallRefs, measuredRefs float64
	refs                   []time.Duration

	attempted, failed int
	failures          []string
}

func (r *repResult) fail(op string, err error) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", op, err))
}

// runRep runs every operation of the workload once.
func runRep(w workloadDef, seed int64, quick bool, chk *checker, tr *tracer) repResult {
	if w.cells == nil {
		return runCampaign(seed, quick, chk, tr)
	}
	var rep repResult
	ref := newRefTimer()
	for _, c := range w.cells(scaleFor(seed, quick)) {
		rep.attempted++
		t := time.Now()
		res, err := runCell(c, tr)
		took := time.Since(t)
		f := ref.scale()
		if err == nil && tr != nil {
			err = tr.replayFTL(tr.pending)
		}
		if err == nil {
			err = checkCell(w.name, c, res, chk)
		}
		rep.wall += took
		rep.wallRefs += took.Seconds() * f
		if err != nil {
			rep.fail(c.name(), err)
			continue
		}
		rep.setup += res.setup
		rep.measured += res.measured
		rep.measuredRefs += res.measured.Seconds() * f
		rep.pages += res.report.Stats.HostWrittenPages
		if res.liveHeap > rep.liveHeap {
			rep.liveHeap = res.liveHeap
		}
	}
	rep.refs = ref.refs
	return rep
}

// checkCell applies the invariants and the golden digest to one cell.
func checkCell(wname string, c cell, res cellResult, chk *checker) error {
	if v := res.verify; v != nil && (!v.Clean() || v.OpenSecrets != 0) {
		return fmt.Errorf("audit: %d open secrets, %d exposed copies, %d phase-sum errors",
			v.OpenSecrets, v.ExposedCopies, v.PhaseSumErrors)
	}
	if err := runInvariants(c.name(), res.report.Stats, c.studyPages()); err != nil {
		return err
	}
	return chk.check(wname+"/"+c.name(), struct {
		Report ssd.Report
		Verify *audit.VerifyReport `json:",omitempty"`
	}{res.report, res.verify})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

func (r *result) add(rep repResult) {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
	r.failures = append(r.failures, rep.failures...)
}

// options configure one benchmark run.
type options struct {
	workload workloadDef
	seed     int64
	budget   time.Duration
	trace    bool
	quick    bool
	// spans, when set, is the directory the traced run's spans go to.
	spans string
}

// measure runs the benchmark and assembles its metrics.
func measure(o options, chk *checker) (result, error) {
	res := result{Metrics: map[string]metric{}}
	if o.trace {
		if err := measureLayers(o, chk, &res); err != nil {
			return res, err
		}
	} else {
		measureEndToEnd(o, chk, &res)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measureEndToEnd repeats the workload until the budget would be
// exceeded by one more repetition (at least one) and reports medians.
// The first repetition runs at the run's seed and is checked against the
// goldens when they apply; the others run at seeds derived from it
// (repSeed) and are checked by the invariants.
func measureEndToEnd(o options, chk *checker, res *result) {
	var wall, setup, rate, heap []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i == 1 {
			chk = &checker{}
		}
		runtime.GC()
		t := time.Now()
		rep := runRep(o.workload, repSeed(o.seed, i), o.quick, chk, nil)
		took := time.Since(t)
		res.add(rep)
		fmt.Fprintf(os.Stderr, "rep %d: wall %.3fs (%.2f refs) setup %.3fs pages %d measured %.3fs heap %.1fMB ref %.1fms\n",
			len(wall), rep.wall.Seconds(), rep.wallRefs, rep.setup.Seconds(), rep.pages, rep.measured.Seconds(),
			float64(rep.liveHeap)/1e6, refMs(rep.refs))
		wall = append(wall, rep.wallRefs)
		setup = append(setup, rep.setup.Seconds())
		rate = append(rate, ratio(float64(rep.pages), rep.measuredRefs))
		heap = append(heap, float64(rep.liveHeap)/1e6)
		if time.Since(start)+took > o.budget {
			break
		}
	}
	res.Metrics["wall_refs"] = metric{median(wall), "refs"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["sim_pages_per_ref"] = metric{median(rate), "pages/ref"}
	res.Metrics["live_heap_mb"] = metric{median(heap), "MB"}
}

// repSeed is the workload seed of repetition i of a run at seed. The
// simulated work varies with the seed: two small-scale campaigns differ by
// 60% in GC copies. A run that repeated one seed would report that draw, so
// each repetition after the first draws its own seed, deterministically
// from the run's, and the median covers the workload rather than one draw.
func repSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 34) // below 2^30, so seed offsets stay positive
}

// refMs is the median of the reference kernel's times, in milliseconds.
func refMs(refs []time.Duration) float64 {
	ms := make([]float64, len(refs))
	for i, d := range refs {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// measureLayers runs the workload once to warm up, once untraced (for the
// runtime counters and the tracing overhead) and once traced, then times
// the NAND commands directly.
func measureLayers(o options, chk *checker, res *result) error {
	// The first repetition in a process pays for growing the heap; run it
	// untimed so the untraced/traced pair compares like with like.
	res.add(runRep(o.workload, o.seed, o.quick, chk, nil))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	plain := runRep(o.workload, o.seed, o.quick, chk, nil)
	runtime.ReadMemStats(&m1)
	res.add(plain)

	runtime.GC()
	tr := newTracer()
	tr.root = tr.addSpan("bench.rep", -1, "", tr.origin, tr.origin)
	traced := runRep(o.workload, o.seed, o.quick, chk, tr)
	tr.spans[tr.root].End = int64(time.Since(tr.origin))
	res.add(traced)

	blocks := 64
	if o.quick {
		blocks = 4
	}
	a := time.Now()
	nandNs, err := nandCosts(blocks)
	res.Attempted++
	if err != nil {
		res.Failed++
		res.failures = append(res.failures, fmt.Sprintf("nand: %v", err))
		nandNs = map[string]float64{}
	}
	tr.addSpan("nand.direct", -1, "", a, time.Now())

	m := res.Metrics
	set := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	secs := func(d time.Duration) float64 { return d.Seconds() }

	set("workload.self_s", secs(tr.genSelf))
	set("workload.steps", float64(tr.steps))
	set("workload.ns_per_step", ratio(float64(tr.genSelf.Nanoseconds()), float64(tr.steps)))

	set("ssd.submit_s", secs(tr.submit))
	set("ssd.self_s", secs(tr.submit-tr.replay))
	for op, name := range opNames {
		set("ssd.requests."+name, float64(tr.reqCount[op]))
		set("ssd.submit_us_p50."+name, percentileUs(tr.reqDur[op], 0.50))
		set("ssd.submit_us_p99."+name, percentileUs(tr.reqDur[op], 0.99))
	}

	s := tr.stats
	set("ftl.replay_s", secs(tr.replay))
	set("ftl.gc_runs", float64(s.GCRuns))
	set("ftl.gc_copies", float64(s.GCCopies))
	set("ftl.sanitize_copies", float64(s.SanitizeCopies))
	set("ftl.erases", float64(s.Erases))
	set("ftl.plocks", float64(s.PLocks))
	set("ftl.blocks", float64(s.BLocks))
	set("ftl.plock_batches", float64(s.PLockBatches))
	set("ftl.plock_batched_pages", float64(s.PLockBatchedPages))
	set("ftl.program_retries", float64(s.ProgramRetries))
	set("ftl.lock_escalations", float64(s.LockEscalations))
	set("ftl.recovery_erases", float64(s.RecoveryErases))
	set("ftl.waf", ratio(float64(s.FlashPrograms), float64(s.HostWrittenPages)))
	set("ftl.copies_per_gc", ratio(float64(s.GCCopies), float64(s.GCRuns)))

	set("nand.reads", float64(s.FlashReads))
	set("nand.programs", float64(s.FlashPrograms))
	set("nand.copybacks", float64(s.Copybacks))
	set("nand.scrubs", float64(s.Scrubs))
	for _, op := range nandOps {
		set("nand.ns_per_"+op, nandNs[op])
	}

	set("trace.collector_s", secs(tr.collector))
	set("trace.op_events", float64(tr.opEvents))
	set("trace.audit_events", float64(tr.auditEvs))
	set("audit.secrets", float64(tr.verify.Secrets))
	set("audit.open_secrets", float64(tr.verify.OpenSecrets))
	set("audit.exposed_copies", float64(tr.verify.ExposedCopies))
	set("fault.op_fails", float64(tr.opFails))

	for _, name := range cellMetricNames() {
		set(name, secs(tr.cellTime[strings.TrimPrefix(name, "experiment.cell_s.")]))
	}
	for _, name := range campaignMetricNames {
		set(name, secs(tr.calls[name]))
	}

	set("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	set("runtime.mallocs", float64(m1.Mallocs-m0.Mallocs))
	set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	set("runtime.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9)
	set("bench.trace_overhead_s", secs(traced.wall-plain.wall))
	set("bench.wall_s", secs(plain.wall))
	set("bench.sim_pages_per_s", ratio(float64(plain.pages), plain.measured.Seconds()))
	set("bench.ref_ms", refMs(plain.refs))

	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", o.workload.name, o.seed))
		if err := tr.writeSpans(path); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	return nil
}

// opNames labels blockio ops in metric names, indexed by blockio.Op.
var opNames = [3]string{"read", "write", "trim"}

// nandOps are the directly timed chip commands ("block" is bLock).
var nandOps = [...]string{"read", "program", "erase", "plock", "block"}

// campaignMetricNames are the report-small entry points, in call order.
var campaignMetricNames = []string{
	"vertrace.studies_s",
	"chipchar.fig6_s", "chipchar.fig9_s", "chipchar.fig10_s", "chipchar.fig11_s", "chipchar.fig12_s",
	"experiment.fig14_s", "experiment.fig14c_s", "experiment.ablation_s", "experiment.audit_sweep_s",
	"attack.matrix_s",
}

// cellMetricNames lists experiment.cell_s.<Profile>.<policy> for every
// cell of every system-level workload, without repeats.
func cellMetricNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		if w.cells == nil {
			continue
		}
		for _, c := range w.cells(experiment.DefaultScale()) {
			if n := "experiment.cell_s." + c.name(); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "ftl.waf" || name == "ftl.copies_per_gc":
		return "ratio"
	case name == "bench.sim_pages_per_s":
		return "pages/s"
	case name == "bench.ref_ms":
		return "ms"
	case name == "runtime.alloc_mb":
		return "MB"
	case strings.HasSuffix(name, "_s") || strings.HasPrefix(name, "experiment.cell_s."):
		return "s"
	case strings.HasPrefix(name, "ssd.submit_us_"):
		return "us"
	case strings.HasPrefix(name, "nand.ns_per_") || name == "workload.ns_per_step":
		return "ns"
	default:
		return "count"
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "fig14-mail, fig14-bulk, secure-churn-audited or report-small")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the golden digests apply only at the default")
	seconds := flag.Int("seconds", 30, "host seconds to measure for (end-to-end run)")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "directory for the traced run's spans (empty: not written)")
	record := flag.Bool("record-golden", false, "run once at the default seed and record the output digests")
	flag.Parse()

	// One P: the simulation, its garbage collector and the reference
	// kernel share one vCPU, so the kernel sees the contention the
	// workload sees. With two, the collector's workers ran on the second
	// vCPU, out of the kernel's sight, and the run-to-run spread of
	// wall_refs on fig14-mail was 5.7% against 4.0% with one (six
	// interleaved runs each).
	runtime.GOMAXPROCS(1)

	w, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || *seconds < 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *traceMode)
		flag.Usage()
		os.Exit(2)
	}
	if *record && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: goldens are recorded at seed %d\n", defaultSeed)
		os.Exit(2)
	}
	chk, err := newChecker(*seed, false, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{workload: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traceMode == 1, spans: *spans}
	if *record {
		o.budget = 0
	}
	res, err := measure(o, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	if *record {
		if res.Failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: not recording goldens from a failing run")
			os.Exit(1)
		}
		if err := chk.writeGoldens(goldenPath, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintln(os.Stderr, "perfbench: non-finite metric")
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
