package main

// System-level workloads: each is a list of (profile × policy) cells run
// serially, one device at a time. The benchmark builds every device itself
// (newDevice mirrors experiment.buildDevice; TestDeviceMatchesExecute pins
// the two together) so that it can split set-up from the measured phase,
// read the live heap while the device is alive, and put a timing shim
// under the file system in the traced run.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nand/vth"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Device parameters shared with experiment.buildDevice.
const (
	gcLow      = 3
	queueDepth = 32
)

// cell is one simulation: a workload profile on a device configuration.
type cell struct {
	prof   workload.Profile
	policy string
	sc     experiment.Scale
	// audited attaches a trace.Recorder with the audit ledger, drains
	// queued locks at the end (experiment.ExecuteAudited) and verifies
	// the ledger.
	audited bool
}

func (c cell) name() string { return c.prof.Name + "." + c.policy }

// studyPages mirrors experiment.Scale.studyPagesFor.
func (c cell) studyPages() uint64 {
	if c.policy == "erSSD" && c.sc.SlowPolicyStudyPages > 0 {
		return c.sc.SlowPolicyStudyPages
	}
	return c.sc.StudyPages
}

// policyNames lists the five Fig. 14 configurations in figure order.
func policyNames() []string {
	var names []string
	for _, p := range experiment.Policies() {
		names = append(names, p.Name())
	}
	return names
}

// fig14Cells crosses profiles with the five policies at scale sc.
func fig14Cells(sc experiment.Scale, profs ...workload.Profile) []cell {
	var cells []cell
	for _, p := range profs {
		for _, pol := range policyNames() {
			cells = append(cells, cell{prof: p, policy: pol, sc: sc})
		}
	}
	return cells
}

// churnCells is the secured-churn configuration: secSSD on a two-plane
// device with deferred pLock batching (2 ms / 96 pages), fault injection
// at 1e-3 and the audit ledger attached.
func churnCells(sc experiment.Scale) []cell {
	sc.Planes = 2
	sc.LockBatch = ftl.LockBatchConfig{Enabled: true, Deadline: 2000, Threshold: 96}
	sc.FaultRate = 1e-3
	var cells []cell
	for _, p := range []workload.Profile{workload.Mobile(), workload.FileServer(), workload.DBServer()} {
		cells = append(cells, cell{prof: p, policy: "secSSD", sc: sc, audited: true})
	}
	return cells
}

// newDevice builds the device experiment.Execute would build for the
// policy at scale sc, with tr as its trace collector (nil: none).
func newDevice(policy ftl.Policy, sc experiment.Scale, tr trace.Collector) (*ssd.SSD, error) {
	chips := experiment.Channels * experiment.ChipsPerChannel
	physical := chips * sc.BlocksPerChip * sc.WLsPerBlock * 3
	op := 0.07
	if minOP := float64(chips*(gcLow+1)*sc.WLsPerBlock*3)/float64(physical) + 0.02; minOP > op {
		op = minOP
	}
	return ssd.New(ssd.Config{
		Channels:        experiment.Channels,
		ChipsPerChannel: experiment.ChipsPerChannel,
		Chip: nand.Geometry{
			Blocks:          sc.BlocksPerChip,
			WLsPerBlock:     sc.WLsPerBlock,
			CellKind:        vth.TLC,
			PageBytes:       sc.PageBytes,
			FlagCells:       9,
			EnduranceCycles: 1000,
		},
		OverProvision:   op,
		GCFreeBlocksLow: gcLow,
		QueueDepth:      queueDepth,
		Policy:          policy,
		Seed:            sc.Seed,
		Fault:           sc.FaultConfig(),
		Trace:           tr,
		Planes:          sc.Planes,
		NoCachePipeline: sc.NoCachePipeline,
		LockBatch:       sc.LockBatch,
		ShardChannels:   sc.ShardChannels,
	})
}

// cellResult is one cell's simulated output and host-side timings.
type cellResult struct {
	name   string
	report ssd.Report
	// verify is the audit verifier's report (audited cells only).
	verify *audit.VerifyReport
	faults fault.Counts

	setup    time.Duration // ssd.New + filesys.New + Generator.Fill
	measured time.Duration // Generator.RunPages (+ FlushLocks when audited)
	// liveHeap is HeapAlloc after a forced GC at the end of the measured
	// phase, with the device still reachable.
	liveHeap uint64
}

// runCell executes one cell. With tr non-nil it also records the cell's
// layer timings into tr; the simulated output is identical either way.
func runCell(c cell, tr *tracer) (cellResult, error) {
	res := cellResult{name: c.name()}
	policy, err := experiment.PolicyByName(c.policy)
	if err != nil {
		return res, err
	}
	var rec *trace.Recorder
	var coll trace.Collector
	if c.audited {
		rec = trace.NewRecorder(trace.RecorderConfig{
			Chips:    experiment.Channels * experiment.ChipsPerChannel,
			Channels: experiment.Channels,
		})
		coll = rec
	}
	var fwd *forwarder
	if tr != nil {
		fwd = &forwarder{inner: coll}
		if coll == nil {
			fwd.inner = trace.Nop{}
		}
		coll = fwd
	}

	t0 := time.Now()
	dev, err := newDevice(policy, c.sc, coll)
	if err != nil {
		return res, err
	}
	defer dev.Close()
	var fsDev filesys.Device = dev
	var shim *submitShim
	if tr != nil {
		shim = newSubmitShim(dev, tr)
		fsDev = shim
	}
	fs, err := filesys.New(fsDev, int64(dev.LogicalPages()), c.sc.PageBytes)
	if err != nil {
		return res, err
	}
	gen := workload.NewGenerator(c.prof, fs, c.sc.PageBytes, c.sc.Seed)
	gen.SecureFraction = 1.0
	tFill := time.Now()
	if err := gen.Fill(c.sc.PrefillFraction); err != nil {
		return res, fmt.Errorf("prefill: %w", err)
	}
	tMeasure := time.Now()
	res.setup = tMeasure.Sub(t0)

	dev.Mark()
	if shim != nil {
		shim.startStudy()
	}
	steps0 := gen.Reads + gen.Writes + gen.Deletes
	if err := gen.RunPages(c.studyPages()); err != nil {
		return res, fmt.Errorf("study: %w", err)
	}
	tRun := time.Now()
	if c.audited {
		dev.FlushLocks()
	}
	tEnd := time.Now()
	res.measured = tEnd.Sub(tMeasure)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeap = ms.HeapAlloc
	res.report = dev.Report()
	res.faults = dev.FaultCounts()
	if rec != nil {
		v := rec.AuditLedger().Verify(rec.Horizon())
		res.verify = &v
	}
	runtime.KeepAlive(dev)

	if tr != nil {
		tr.pending = replayJob{c: c, reqs: shim.reqs, studyStart: shim.studyStart,
			geo: dev.Geometry(), logical: dev.LogicalPages()}
		tr.addCell(c, cellSpans{start: t0, fill: tFill, measure: tMeasure, run: tRun, end: tEnd},
			gen.Reads+gen.Writes+gen.Deletes-steps0, shim, fwd, res)
	}
	return res, nil
}
