package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/barrier"
	"repro/internal/interconnect"
	"repro/internal/kernels"
)

// sizes fixes every input size of the three workloads. The direct
// workloads take their data from the kernels' fixed generators, so sizes
// alone determine their inputs; the sweep's chaos seeds come from --seed.
type sizes struct {
	Name         string
	KernelN      map[string]int // paper-kernels: registry kernel → N (loops 1)
	KernelCores  int            // paper-kernels parallel runs and the lock kernels
	MbK, MbM     int            // barrier-storm microbenchmark: K barriers × M iterations
	StormCores   []int          // barrier-storm core counts
	LockN        map[string]int // barrier-storm lock kernels → N (loops 1)
	SweepN       int            // sweep-service spec n (every kernel)
	SweepSeeds   int            // chaos seeds per cell
	SweepThreads int            // sweep-service threads per cell
}

// paperKernels are the Table 1 kernels, in the paper's order.
var paperKernels = []string{"livermore2", "livermore3", "livermore6", "autcor", "viterbi"}

// fullSizes are the benchmark's sizes. Each is chosen so one pass of a
// workload takes a second or two on a 2-core host, so a run holds enough
// passes for a steady median, and so that in paper-kernels neither barrier
// mechanism takes more than about two thirds of the pass (see NOTES.md).
var fullSizes = sizes{
	Name: "full",
	KernelN: map[string]int{
		"livermore2": 512, "livermore3": 4096, "livermore6": 16, "autcor": 8192, "viterbi": 8,
	},
	KernelCores:  16,
	MbK:          64,
	MbM:          4,
	StormCores:   []int{16, 32, 64},
	LockN:        map[string]int{"lockreduce": 256, "pipeline": 48},
	SweepN:       32,
	SweepSeeds:   2,
	SweepThreads: 8,
}

// tinySizes drive the self-test: every code path and metric, in well under
// a second per pass.
var tinySizes = sizes{
	Name: "tiny",
	KernelN: map[string]int{
		"livermore2": 32, "livermore3": 64, "livermore6": 8, "autcor": 64, "viterbi": 4,
	},
	KernelCores:  4,
	MbK:          4,
	MbM:          2,
	StormCores:   []int{4, 8},
	LockN:        map[string]int{"lockreduce": 16, "pipeline": 8},
	SweepN:       32,
	SweepSeeds:   1,
	SweepThreads: 4,
}

func registryKernel(name string, n int) func() kernels.Kernel {
	return func() kernels.Kernel {
		k, err := kernels.New(name, n, 1)
		if err != nil {
			panic(err) // names come from the fixed lists above
		}
		return k
	}
}

// paperKernelCells is the paper's own evaluation: each Table 1 kernel on
// one core, and on KernelCores cores with filter-d and with sw-central on
// the bus.
func paperKernelCells(sz sizes) []cellSpec {
	var cells []cellSpec
	for _, name := range paperKernels {
		mk := registryKernel(name, sz.KernelN[name])
		label := mk().Name()
		cells = append(cells, cellSpec{Key: "paper-kernels/" + label + "/seq", Group: name, Variant: "seq",
			Make: mk, Seq: true, Cores: 1})
		for _, kind := range []barrier.Kind{barrier.KindFilterD, barrier.KindSWCentral} {
			cells = append(cells, cellSpec{
				Key:   fmt.Sprintf("paper-kernels/%s/%s/bus/%d", label, kind, sz.KernelCores),
				Group: name, Variant: kind.String(),
				Make: mk, Kind: kind, Cores: sz.KernelCores, Fabric: interconnect.KindBus})
		}
	}
	return cells
}

// barrierStormCells is the Figure 4 microbenchmark with three fast
// mechanisms at every core count on the bus and the mesh, plus the two
// lock kernels with filter-d.
func barrierStormCells(sz sizes) []cellSpec {
	var cells []cellSpec
	mk := func() kernels.Kernel { return &kernels.Microbench{K: sz.MbK, M: sz.MbM} }
	label := mk().Name()
	for _, fab := range []interconnect.Kind{interconnect.KindBus, interconnect.KindMesh} {
		for _, kind := range []barrier.Kind{barrier.KindFilterD, barrier.KindFilterIPP, barrier.KindHWNet} {
			for _, n := range sz.StormCores {
				cells = append(cells, cellSpec{
					Key:   fmt.Sprintf("barrier-storm/%s/%s/%s/%d", label, kind, fab, n),
					Group: "microbench", Variant: kind.String(),
					Make: mk, Kind: kind, Cores: n, Fabric: fab,
					Barriers: uint64(sz.MbK) * uint64(sz.MbM)})
			}
		}
	}
	for _, name := range []string{"lockreduce", "pipeline"} {
		mk := registryKernel(name, sz.LockN[name])
		cells = append(cells, cellSpec{
			Key:   fmt.Sprintf("barrier-storm/%s/filter-d/bus/%d", mk().Name(), sz.KernelCores),
			Group: name, Variant: "filter-d",
			Make: mk, Kind: barrier.KindFilterD, Cores: sz.KernelCores, Fabric: interconnect.KindBus})
	}
	return cells
}

// directPass runs every cell once, in order, on the calling goroutine.
// Cell failures are counted, never fatal.
func directPass(cells []cellSpec, kn knobs, ref reference, tr *tracer, ids *int) passOut {
	p := passOut{Counters: newCounters(), CellCycles: make(map[string]uint64)}
	start := time.Now()
	ps := tr.begin("pass", 0, -1)
	for _, c := range cells {
		*ids++
		o, err := runDirect(c, kn, tr, ps, *ids)
		if err == nil {
			err = ref.check(c.Key, refEntry{Cycles: o.Cycles, Digest: statsDigest(o.Stats)})
		}
		p.add(c, o, err)
		if p.Cells == 1 {
			p.TTFR = time.Since(start)
		}
	}
	tr.end(ps)
	p.Wall = time.Since(start)
	return p
}

// add folds one finished cell into the pass.
func (p *passOut) add(c cellSpec, o cellOut, err error) {
	p.Attempted++
	p.Cells++
	p.Setup += o.setup()
	p.CellTimes = append(p.CellTimes, o.total())
	if err != nil {
		p.Failed++
		p.Failures = append(p.Failures, err.Error())
		return
	}
	p.RunTime += o.Run
	p.SimCycles += o.Cycles
	p.SimInst += o.Inst
	p.CellCycles[c.Key] = o.Cycles
	p.Counters.add(o.Stats.Snapshot())
	if c.Barriers > 0 {
		p.Barriers += c.Barriers
		p.BarrierCycles += o.Cycles
	}
}

// variantShares reports how the pass's host time splits between the
// sequential runs and each barrier mechanism.
func variantShares(cells []cellSpec, p passOut) string {
	by := make(map[string]time.Duration)
	var total time.Duration
	for i, c := range cells {
		by[c.Variant] += p.CellTimes[i]
		total += p.CellTimes[i]
	}
	names := make([]string, 0, len(by))
	for v := range by {
		names = append(names, v)
	}
	sort.Strings(names)
	line := "host time by variant:"
	for _, v := range names {
		line += fmt.Sprintf(" %s %.0f%%", v, 100*div(by[v].Seconds(), total.Seconds()))
	}
	return line
}

// table1 is the paper's Table 1 (best software barrier, sequential = 1.0)
// and, where the paper gives a number, its best-filter speedup (Figures 5
// and 6), as recorded in EXPERIMENTS.md.
var table1 = map[string]struct{ BestSW, BestFilter float64 }{
	"livermore2": {BestSW: 0.42},
	"livermore3": {BestSW: 1.52},
	"livermore6": {BestSW: 2.08},
	"autcor":     {BestSW: 3.86, BestFilter: 7.31},
	"viterbi":    {BestSW: 0.76, BestFilter: 1.5},
}

// modelLines reports paper-kernels' speedups over the one-core run beside
// the paper's values. The comparison is loose by construction: the paper
// takes the best of its software barriers (sw-central is one of them) and
// the best of its filters, at its own sizes, with warm repetitions; this
// benchmark runs each kernel once, cold, at the sizes in the label.
func modelLines(cells []cellSpec, p passOut) []string {
	key := func(group, variant string) string {
		for _, c := range cells {
			if c.Group == group && c.Variant == variant {
				return c.Key
			}
		}
		return ""
	}
	var out []string
	for _, name := range paperKernels {
		seqKey := key(name, "seq")
		seq, fd, sw := p.CellCycles[seqKey], p.CellCycles[key(name, "filter-d")], p.CellCycles[key(name, "sw-central")]
		if seq == 0 || fd == 0 || sw == 0 {
			out = append(out, fmt.Sprintf("model %s: cells failed, no speedups", name))
			continue
		}
		label := strings.Split(seqKey, "/")[1] // paper-kernels/<kernel name>/seq
		sFD, sSW := float64(seq)/float64(fd), float64(seq)/float64(sw)
		ref := table1[name]
		line := fmt.Sprintf("model %s (cold, one run each): speedup filter-d %.2fx", label, sFD)
		if ref.BestFilter > 0 {
			line += fmt.Sprintf(" vs paper best filter %.2fx (model.filter_err_pct.%s = %+.1f %%)",
				ref.BestFilter, name, 100*(sFD-ref.BestFilter)/ref.BestFilter)
		} else {
			line += " (unvalidated: the paper gives no number)"
		}
		line += fmt.Sprintf("; speedup sw-central %.2fx vs paper best software %.2fx (model.table1_err_pct.%s = %+.1f %%)",
			sSW, ref.BestSW, name, 100*(sSW-ref.BestSW)/ref.BestSW)
		out = append(out, line)
	}
	return out
}
