package main

// The report-small workload: the `reproduce -scale small` campaign, called
// serially through the same library entry points cmd/reproduce uses, in
// the same order, with one worker.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/chipchar"
	"repro/internal/experiment"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/vertrace"
	"repro/internal/workload"
)

// The seeds cmd/reproduce gives the data-versioning study and the chip
// characterization; a workload seed other than the default shifts them by
// the same offset.
const (
	vertraceSeed = 11
	chipcharSeed = 1
)

// campaignStep is one library entry point of the campaign: its per-layer
// metric name and a call returning the figure's result structs.
type campaignStep struct {
	metric string
	call   func() (any, error)
}

// campaignOut collects what the campaign's steps produced.
type campaignOut struct {
	runs   []experiment.Run // every system-level cell, for invariants
	audits []experiment.AuditCell
	attack attack.Verdict
}

// campaignSteps lists the campaign for seed; quick shrinks the study
// volumes for the self-test.
func campaignSteps(seed int64, quick bool, out *campaignOut) []campaignStep {
	sc := experiment.SmallScale()
	sc.Seed = seed
	vtPages := uint64(96 * 1024)
	chip := chipchar.Config{WLs: 10000, Seed: chipcharSeed + seed - defaultSeed, Workers: 1}
	if quick {
		sc.StudyPages = quickStudyPages
		vtPages = 8 * 1024
		chip.WLs = 1024
	}
	return []campaignStep{
		{"vertrace.studies_s", func() (any, error) {
			var cfgs []vertrace.StudyConfig
			for _, p := range []workload.Profile{workload.Mobile(), workload.MailServer(), workload.DBServer()} {
				cfgs = append(cfgs, vertrace.StudyConfig{
					Workload: p, CapacityPages: 32 * 1024, PageBytes: 4096,
					FillFraction: 0.75, StudyPages: vtPages, Seed: vertraceSeed + seed - defaultSeed,
				})
			}
			return vertrace.RunStudies(cfgs, 1)
		}},
		{"chipchar.fig6_s", func() (any, error) { return chipchar.Figure6(chip), nil }},
		{"chipchar.fig9_s", func() (any, error) { return chipchar.Figure9(chip), nil }},
		{"chipchar.fig10_s", func() (any, error) { return chipchar.Figure10(chip), nil }},
		{"chipchar.fig11_s", func() (any, error) { return chipchar.Figure11(chip), nil }},
		{"chipchar.fig12_s", func() (any, error) {
			return struct {
				Fig12    chipchar.Fig12Result
				Overhead chipchar.Overhead
			}{chipchar.Figure12(chip), chipchar.ComputeOverhead(9)}, nil
		}},
		{"experiment.fig14_s", func() (any, error) {
			rows, err := experiment.Figure14Parallel(sc, nil, 1)
			for _, r := range rows {
				for _, pol := range policyNames() {
					out.runs = append(out.runs, r.Runs[pol])
				}
			}
			return struct {
				Rows     []experiment.Fig14Row
				Headline experiment.Headline
			}{rows, experiment.ComputeHeadline(rows)}, err
		}},
		{"experiment.fig14c_s", func() (any, error) {
			return experiment.Figure14cParallel(sc, nil, nil, 1)
		}},
		{"experiment.ablation_s", func() (any, error) {
			cells, err := experiment.BatchingAblation(sc, 1)
			for _, c := range cells {
				out.runs = append(out.runs, c.Run)
			}
			return cells, err
		}},
		{"experiment.audit_sweep_s", func() (any, error) {
			cells, err := experiment.AuditSweep(sc, 1)
			out.audits = cells
			for _, c := range cells {
				out.runs = append(out.runs, c.Run)
			}
			return cells, err
		}},
		{"attack.matrix_s", func() (any, error) {
			scores, err := attack.Matrix(attack.DefaultCells(sc.Seed), 1)
			out.attack = attack.Verify(scores)
			return struct {
				Scores  []attack.Score
				Verdict attack.Verdict
			}{scores, out.attack}, err
		}},
	}
}

// simSteps are the campaign steps whose host time counts toward
// sim_pages_per_s: the ones that run system-level cells.
var simSteps = map[string]bool{
	"experiment.fig14_s":       true,
	"experiment.fig14c_s":      true,
	"experiment.ablation_s":    true,
	"experiment.audit_sweep_s": true,
}

// setupProbe times the set-up stage (ssd.New, filesys.New,
// Generator.Fill) of the campaign's Fig. 14 cells, which the figure
// functions otherwise run out of sight.
func setupProbe(seed int64) (time.Duration, error) {
	sc := experiment.SmallScale()
	sc.Seed = seed
	var total time.Duration
	for _, c := range fig14Cells(sc, workload.Profiles()...) {
		policy, err := experiment.PolicyByName(c.policy)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		dev, err := newDevice(policy, sc, nil)
		if err != nil {
			return 0, err
		}
		fs, err := filesys.New(dev, int64(dev.LogicalPages()), sc.PageBytes)
		if err != nil {
			return 0, err
		}
		if err := workload.NewGenerator(c.prof, fs, sc.PageBytes, sc.Seed).Fill(sc.PrefillFraction); err != nil {
			return 0, fmt.Errorf("%s prefill: %w", c.name(), err)
		}
		total += time.Since(t)
		dev.Close()
	}
	return total, nil
}

// runCampaign runs one repetition of report-small, checking each step's
// output with chk.
func runCampaign(seed int64, quick bool, chk *checker, tr *tracer) repResult {
	var out campaignOut
	var rep repResult
	var results []any // held so the live-heap read sees them
	ref := newRefTimer()
	for _, st := range campaignSteps(seed, quick, &out) {
		nRuns := len(out.runs)
		t := time.Now()
		v, err := st.call()
		d := time.Since(t)
		f := ref.scale()
		rep.wall += d
		rep.wallRefs += d.Seconds() * f
		if simSteps[st.metric] {
			rep.measured += d
			rep.measuredRefs += d.Seconds() * f
		}
		if tr != nil {
			tr.calls[st.metric] += d
			tr.addSpan(st.metric, tr.root, "", t, t.Add(d))
		}
		rep.attempted++
		if err == nil {
			err = chk.check("report-small/"+strings.TrimSuffix(st.metric, "_s"), v)
		}
		if err == nil {
			err = campaignInvariants(st.metric, out, nRuns, quick)
		}
		if err != nil {
			rep.fail(st.metric, err)
		}
		results = append(results, v)
		for _, r := range out.runs[nRuns:] {
			rep.pages += r.Report.Stats.HostWrittenPages
			if tr != nil {
				addStats(&tr.stats, r.Report.Stats)
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(results)
	rep.refs = ref.refs

	probe, err := setupProbe(seed)
	if err != nil {
		rep.attempted++
		rep.fail("setup-probe", err)
	}
	rep.setup = probe
	if tr != nil {
		for _, a := range out.audits {
			tr.addVerify(a.Verify)
		}
	}
	return rep
}

// campaignInvariants checks what must hold on any seed after a step.
func campaignInvariants(metric string, out campaignOut, fromRun int, quick bool) error {
	study := experiment.SmallScale().StudyPages
	if quick {
		study = quickStudyPages
	}
	for _, r := range out.runs[fromRun:] {
		if err := runInvariants(r.Workload+"."+r.Policy, r.Report.Stats, study); err != nil {
			return err
		}
	}
	switch metric {
	case "experiment.audit_sweep_s":
		for _, a := range out.audits {
			if !a.Verify.Clean() {
				return fmt.Errorf("audit %s: %w", a.Label, a.Verify.Err())
			}
		}
	case "attack.matrix_s":
		if !out.attack.Pass {
			return fmt.Errorf("attack verdict failed: %v", out.attack.Failures)
		}
	}
	return nil
}

// runInvariants checks one system-level cell's report.
func runInvariants(name string, s ftl.Stats, study uint64) error {
	if s.PLockFailures != s.LockEscalations {
		return fmt.Errorf("%s: %d pLock failures but %d lock escalations", name, s.PLockFailures, s.LockEscalations)
	}
	if s.HostWrittenPages < study {
		return fmt.Errorf("%s: %d host pages written, below the study volume %d", name, s.HostWrittenPages, study)
	}
	return nil
}
