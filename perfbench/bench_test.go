package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDeviceMatchesExecute pins newDevice and runCell to
// experiment.Execute and ExecuteAudited: the benchmark builds its devices
// itself, so drift from experiment.buildDevice would silently change what
// it measures. The traced path must produce the same output too.
func TestDeviceMatchesExecute(t *testing.T) {
	sc := experiment.SmallScale()
	for _, c := range fig14Cells(sc, workload.MailServer()) {
		policy, err := experiment.PolicyByName(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiment.Execute(c.prof, policy, 1.0, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			got, err := runCell(c, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.report, want.Report) {
				t.Errorf("%s (traced %v): report differs from experiment.Execute:\n got %+v\nwant %+v",
					c.name(), tr != nil, got.report, want.Report)
			}
		}
	}

	for _, c := range churnCells(sc) {
		policy, err := experiment.PolicyByName(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(trace.RecorderConfig{
			Chips:    experiment.Channels * experiment.ChipsPerChannel,
			Channels: experiment.Channels,
		})
		want, err := experiment.ExecuteAudited(c.prof, policy, 1.0, c.sc, rec)
		if err != nil {
			t.Fatal(err)
		}
		wantVerify := rec.AuditLedger().Verify(rec.Horizon())
		for _, tr := range []*tracer{nil, newTracer()} {
			got, err := runCell(c, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.report, want.Report) || !reflect.DeepEqual(*got.verify, wantVerify) {
				t.Errorf("%s (traced %v): output differs from experiment.ExecuteAudited", c.name(), tr != nil)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestQuickWorkloadsEmitEveryMetric runs every workload at reduced volume,
// untraced and traced, and checks each emits exactly the metrics
// BENCHMARK.json names, with their units and finite values.
func TestQuickWorkloadsEmitEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("workload %q is not implemented", sw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			chk, err := newChecker(defaultSeed, true, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := measure(options{workload: w, seed: defaultSeed, trace: traced, quick: true}, chk)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v",
					w.name, traced, res.Failed, res.Attempted, res.failures)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not emitted", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (traced %v): metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}
