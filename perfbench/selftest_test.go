package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simd"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestTinyWorkloadsPrintEveryMetric runs a tiny pass of every workload,
// untraced and traced, against a reference pinned from the tiny cells, and
// checks that the result names exactly the metrics BENCHMARK.json
// declares, each with its unit, and that every output check passed.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	const seed = 7
	workers := runtime.NumCPU()
	ref, err := pinDirect(append(paperKernelCells(tinySizes), barrierStormCells(tinySizes)...))
	if err != nil {
		t.Fatal(err)
	}
	if err := pinSweep(ref, tinySizes, chaosSeeds(seed, tinySizes.SweepSeeds), workers, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				res, lines, err := runWorkload(options{Workload: w, Seed: seed, Seconds: 0.2, Trace: trace,
					Sizes: tinySizes, Ref: ref, WorkDir: t.TempDir(), OutDir: t.TempDir(), Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: %+v\n%s", res, strings.Join(lines, "\n"))
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", name)
					case m.Unit != unit:
						t.Errorf("metric %s printed in %q, declared in %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestPerturbedDigestFails checks that a cell whose pinned digest differs
// from its outcome counts as failed, for direct and sweep cells alike, and
// that the knob-dependent counters are excluded from the digest.
func TestPerturbedDigestFails(t *testing.T) {
	cells := paperKernelCells(tinySizes)
	ref, err := pinDirect(cells)
	if err != nil {
		t.Fatal(err)
	}
	ids := 0
	if p := directPass(cells, knobs{}, ref, nil, &ids); p.Failed != 0 {
		t.Fatalf("clean pass failed: %v", p.Failures)
	}
	if p := directPass(cells, knobs{NoTranslate: true, NoFastPath: true}, ref, nil, &ids); p.Failed != 0 {
		t.Fatalf("knob-off pass differs from the reference: %v", p.Failures)
	}
	bad := cells[3].Key
	e := ref[bad]
	e.Digest = strings.Repeat("0", len(e.Digest))
	ref[bad] = e
	p := directPass(cells, knobs{}, ref, nil, &ids)
	if p.Failed != 1 || !strings.Contains(p.Failures[0], bad) {
		t.Fatalf("perturbed digest of %s: failed=%d %v", bad, p.Failed, p.Failures)
	}

	sw, serr := simd.Normalize(sweepSpec(tinySizes, []uint64{1}), simd.DefaultLimits())
	if serr != nil {
		t.Fatal(serr)
	}
	c := sw.Cells[0]
	res, err := simd.RunCell(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bytes()
	sref := reference{sweepKey(c): {Cycles: res.Cycles, Digest: bytesDigest(b)}}
	if err := checkSweepCell(c, b, sref); err != nil {
		t.Fatalf("clean sweep cell: %v", err)
	}
	sref[sweepKey(c)] = refEntry{Cycles: res.Cycles, Digest: "perturbed"}
	if err := checkSweepCell(c, b, sref); err == nil {
		t.Fatal("perturbed sweep digest passed")
	}
}

// TestTraceSpansNest checks a traced pass's spans: each lies inside its
// parent and shares its cell, self times add up to the root spans, and a
// span escaping its parent is reported.
func TestTraceSpansNest(t *testing.T) {
	tr := newTracer()
	ids := 0
	directPass(barrierStormCells(tinySizes), knobs{}, nil, tr, &ids)
	if err := tr.checkNesting(); err != nil {
		t.Fatal(err)
	}
	var roots, self int64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots += int64(s.End - s.Start)
		}
	}
	for _, d := range tr.selfTimes() {
		self += int64(d)
	}
	if roots != self {
		t.Errorf("self times sum to %d ns, root spans cover %d ns", self, roots)
	}
	for _, name := range []string{"pass", "cell", "kernels.build", "vet.check", "core.launch", "core.run", "kernels.verify"} {
		if _, ok := tr.selfTimes()[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}

	bad := &tracer{spans: []span{
		{Name: "cell", Cell: 1, Start: 10, End: 20},
		{Name: "core.run", Parent: 1, Cell: 1, Start: 15, End: 25},
	}}
	if bad.checkNesting() == nil {
		t.Error("a child outliving its parent was not reported")
	}
	bad.spans[1].End, bad.spans[1].Cell = 18, 2
	if bad.checkNesting() == nil {
		t.Error("a child in another cell was not reported")
	}
}

// TestReferenceCoversEveryCell checks that reference.json pins every cell
// a full-size run can meet: both direct workloads and the sweep for every
// seed of the pool.
func TestReferenceCoversEveryCell(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(paperKernelCells(fullSizes), barrierStormCells(fullSizes)...) {
		if _, ok := ref[c.Key]; !ok {
			t.Errorf("%s not pinned", c.Key)
		}
	}
	pool := make([]uint64, seedPool)
	for i := range pool {
		pool[i] = uint64(i + 1)
	}
	sw, serr := simd.Normalize(sweepSpec(fullSizes, pool), simd.DefaultLimits())
	if serr != nil {
		t.Fatal(serr)
	}
	for _, c := range sw.Cells {
		if _, ok := ref[sweepKey(c)]; !ok {
			t.Errorf("%s not pinned", sweepKey(c))
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		s := chaosSeeds(seed, fullSizes.SweepSeeds)
		if len(s) != 2 || s[0] == s[1] || s[0] < 1 || s[0] > seedPool || s[1] < 1 || s[1] > seedPool {
			t.Fatalf("chaosSeeds(%d) = %v", seed, s)
		}
	}
}

// TestRunPerCPURestoresAffinity checks that the sweep's calibration times
// its chunks on every CPU and leaves the thread's affinity as it found it.
func TestRunPerCPURestoresAffinity(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, after cpuSet
	if err := before.get(); err != nil {
		t.Skipf("no affinity mask: %v", err)
	}
	var c calib
	c.runPerCPU(1)
	if err := after.get(); err != nil || after != before {
		t.Fatalf("affinity %v after calibration, %v before (%v)", after.cpus(), before.cpus(), err)
	}
	if n := len(before.cpus()); n >= 2 && c.Chunks != n {
		t.Errorf("timed %d chunks on %d CPUs, want one each", c.Chunks, n)
	}
	if c.speed() <= 0 {
		t.Errorf("speed %v", c.speed())
	}
}
