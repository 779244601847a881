package main

// Layer instrumentation for the traced run. Everything here sits outside
// the program: a filesys.Device shim around ssd.SSD.Submit, a forwarding
// trace.Collector, an FTL-only replay of each cell's request stream over
// ftltest.CountingTarget, and direct calls on a standalone nand.Chip. The
// spans (name, start, end, parent, cell) stay in memory and are written
// when the run ends.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/experiment"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the traced run began; Parent indexes the enclosing span (-1 for
// none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell,omitempty"`
}

// tracer accumulates one traced repetition's layer measurements.
type tracer struct {
	origin time.Time
	spans  []span
	root   int

	// pending is the last cell's recorded stream, awaiting replayFTL; its
	// buffer is reused by the next cell.
	pending replayJob

	genSelf  time.Duration // RunPages minus time inside Submit
	steps    uint64        // generator file operations in the measured phase
	submit   time.Duration // time inside ssd.SSD.Submit, measured phase
	reqCount [3]uint64     // by blockio.Op
	reqDur   [3][]time.Duration
	replay   time.Duration // FTL-only replay of the measured phase

	collector          time.Duration
	opEvents, auditEvs uint64

	stats   ftl.Stats
	verify  audit.VerifyReport
	opFails uint64

	cellTime map[string]time.Duration
	// calls times the campaign's library entry points by metric name.
	calls map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		origin:   time.Now(),
		root:     -1,
		cellTime: map[string]time.Duration{},
		calls:    map[string]time.Duration{},
	}
}

func (t *tracer) addSpan(name string, parent int, cellName string, a, b time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, Start: int64(a.Sub(t.origin)), End: int64(b.Sub(t.origin)),
		Parent: parent, Cell: cellName,
	})
	return len(t.spans) - 1
}

// cellSpans are the phase boundaries runCell observed.
type cellSpans struct {
	start, fill, measure, run, end time.Time
}

// addCell folds one finished cell into the layer totals.
func (t *tracer) addCell(c cell, sp cellSpans, steps uint64, shim *submitShim, fwd *forwarder, res cellResult) {
	name := c.name()
	ci := t.addSpan("experiment.cell", t.root, name, sp.start, sp.end)
	t.addSpan("setup.build", ci, name, sp.start, sp.fill)
	t.addSpan("workload.fill", ci, name, sp.fill, sp.measure)
	t.addSpan("workload.run_pages", ci, name, sp.measure, sp.run)
	if c.audited {
		t.addSpan("ssd.flush_locks", ci, name, sp.run, sp.end)
	}
	t.cellTime[name] += sp.end.Sub(sp.start)

	t.genSelf += sp.run.Sub(sp.measure) - shim.total
	t.steps += steps
	t.submit += shim.total
	for op := range shim.count {
		t.reqCount[op] += shim.count[op]
	}
	t.collector += fwd.dur
	t.opEvents += fwd.ops
	t.auditEvs += fwd.audits
	addStats(&t.stats, res.report.Stats)
	if res.verify != nil {
		t.addVerify(*res.verify)
	}
	t.opFails += res.faults.OpFails()
}

// addVerify sums the audit verifier's counts.
func (t *tracer) addVerify(v audit.VerifyReport) {
	t.verify.Secrets += v.Secrets
	t.verify.OpenSecrets += v.OpenSecrets
	t.verify.ExposedCopies += v.ExposedCopies
}

// addStats sums the FTL counters the per-layer metrics report.
func addStats(dst *ftl.Stats, s ftl.Stats) {
	dst.HostWrittenPages += s.HostWrittenPages
	dst.FlashReads += s.FlashReads
	dst.FlashPrograms += s.FlashPrograms
	dst.Copybacks += s.Copybacks
	dst.Scrubs += s.Scrubs
	dst.GCRuns += s.GCRuns
	dst.GCCopies += s.GCCopies
	dst.SanitizeCopies += s.SanitizeCopies
	dst.Erases += s.Erases
	dst.PLocks += s.PLocks
	dst.BLocks += s.BLocks
	dst.PLockBatches += s.PLockBatches
	dst.PLockBatchedPages += s.PLockBatchedPages
	dst.ProgramRetries += s.ProgramRetries
	dst.LockEscalations += s.LockEscalations
	dst.RecoveryErases += s.RecoveryErases
}

// writeSpans writes the recorded spans as a JSON array.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// submitShim is the filesys.Device the traced run puts between the file
// system and the SSD. It records every request for the FTL replay and,
// in the measured phase, times each Submit.
type submitShim struct {
	dev        *ssd.SSD
	reqs       []blockio.Request
	studyStart int
	measuring  bool
	tr         *tracer

	total time.Duration
	count [3]uint64
}

func newSubmitShim(dev *ssd.SSD, tr *tracer) *submitShim {
	return &submitShim{dev: dev, reqs: tr.pending.reqs[:0], tr: tr}
}

func (s *submitShim) startStudy() {
	s.studyStart = len(s.reqs)
	s.measuring = true
}

// Submit implements filesys.Device.
func (s *submitShim) Submit(req blockio.Request) (sim.Micros, error) {
	rec := req
	rec.Data = nil
	s.reqs = append(s.reqs, rec)
	if !s.measuring {
		return s.dev.Submit(req)
	}
	t := time.Now()
	done, err := s.dev.Submit(req)
	d := time.Since(t)
	s.total += d
	if req.Op <= blockio.OpTrim {
		s.count[req.Op]++
		s.tr.reqDur[req.Op] = append(s.tr.reqDur[req.Op], d)
	}
	return done, err
}

// forwarder is a trace.Collector that passes every call to inner and
// counts and times them. Wrapped around trace.Nop it stays disabled, so
// the device never calls it.
type forwarder struct {
	inner       trace.Collector
	dur         time.Duration
	ops, audits uint64
}

func (f *forwarder) Enabled() bool { return f.inner.Enabled() }

func (f *forwarder) Op(ev trace.Event) {
	t := time.Now()
	f.inner.Op(ev)
	f.dur += time.Since(t)
	f.ops++
}

func (f *forwarder) Gauge(kind trace.GaugeKind, at sim.Micros, v float64) {
	t := time.Now()
	f.inner.Gauge(kind, at, v)
	f.dur += time.Since(t)
}

func (f *forwarder) Invalidated(page uint32, secured bool, at sim.Micros) {
	t := time.Now()
	f.inner.Invalidated(page, secured, at)
	f.dur += time.Since(t)
}

func (f *forwarder) Destroyed(page uint32, at sim.Micros) {
	t := time.Now()
	f.inner.Destroyed(page, at)
	f.dur += time.Since(t)
}

func (f *forwarder) Audit(ev audit.Event) {
	t := time.Now()
	f.inner.Audit(ev)
	f.dur += time.Since(t)
	f.audits++
}

// replayJob is a finished cell's recorded request stream.
type replayJob struct {
	c          cell
	reqs       []blockio.Request
	studyStart int
	geo        ftl.Geometry
	logical    int
}

// replayFTL re-runs the recorded stream into a fresh ftl.FTL over
// ftltest.CountingTarget with the cell's FTL configuration and a
// closed-loop window like the SSD's, so the FTL and policy cost is timed
// without the ssd and nand layers. The measured phase's replay time goes
// to ftl.replay_s.
func (t *tracer) replayFTL(j replayJob) error {
	policy, err := experiment.PolicyByName(j.c.policy)
	if err != nil {
		return err
	}
	f, err := ftl.New(ftl.Config{
		Geometry:        j.geo,
		LogicalPages:    j.logical,
		GCFreeBlocksLow: gcLow,
		LockBatch:       j.c.sc.LockBatch,
		Timing:          ftl.DefaultLockTiming(),
	}, ftltest.New(j.geo), policy)
	if err != nil {
		return err
	}
	window := make([]sim.Micros, queueDepth)
	w := 0
	submit := func(reqs []blockio.Request) error {
		for _, r := range reqs {
			done, err := f.Submit(r, window[w])
			if err != nil {
				return err
			}
			window[w] = done
			w = (w + 1) % len(window)
		}
		return nil
	}
	if err := submit(j.reqs[:j.studyStart]); err != nil {
		return fmt.Errorf("replay prefill: %w", err)
	}
	b := time.Now()
	if err := submit(j.reqs[j.studyStart:]); err != nil {
		return fmt.Errorf("replay study: %w", err)
	}
	e := time.Now()
	t.addSpan("ftl.replay", t.root, j.c.name(), b, e)
	t.replay += e.Sub(b)
	return nil
}

// nandCosts times chip commands by direct calls on a standalone
// default-geometry nand.Chip: per block, program every page, read every
// page, pLock every other page, bLock the block and erase it. It returns
// mean nanoseconds per command, keyed by command.
func nandCosts(blocks int) (map[string]float64, error) {
	geo := nand.DefaultGeometry()
	chip, err := nand.New(geo)
	if err != nil {
		return nil, err
	}
	ppb := geo.PagesPerBlock()
	data := make([]byte, geo.PageBytes)
	for i := range data {
		data[i] = byte(i)
	}
	var dur [len(nandOps)]time.Duration
	var n [len(nandOps)]int
	const ( // indices into nandOps
		rd = iota
		prog
		erase
		plock
		block
	)
	var now sim.Micros
	for k := 0; k < blocks; k++ {
		b := k % geo.Blocks
		t := time.Now()
		for p := 0; p < ppb; p++ {
			if _, err := chip.Program(nand.PageAddr{Block: b, Page: p}, data, now); err != nil {
				return nil, err
			}
		}
		dur[prog] += time.Since(t)
		n[prog] += ppb
		t = time.Now()
		for p := 0; p < ppb; p++ {
			if _, err := chip.Read(nand.PageAddr{Block: b, Page: p}, now); err != nil {
				return nil, err
			}
		}
		dur[rd] += time.Since(t)
		n[rd] += ppb
		t = time.Now()
		for p := 0; p < ppb; p += 2 {
			if _, err := chip.PLock(nand.PageAddr{Block: b, Page: p}, now); err != nil {
				return nil, err
			}
		}
		dur[plock] += time.Since(t)
		n[plock] += ppb / 2
		t = time.Now()
		if _, err := chip.BLock(b, now); err != nil {
			return nil, err
		}
		dur[block] += time.Since(t)
		n[block]++
		t = time.Now()
		if _, err := chip.Erase(b, now); err != nil {
			return nil, err
		}
		dur[erase] += time.Since(t)
		n[erase]++
		now += 10_000
	}
	out := map[string]float64{}
	for i, name := range nandOps {
		out[name] = float64(dur[i].Nanoseconds()) / float64(n[i])
	}
	return out, nil
}

// percentileUs returns the q-quantile of ds in microseconds (0 if empty),
// sorting ds in place.
func percentileUs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)-1))
	return float64(ds[i].Nanoseconds()) / 1e3
}
