package main

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/vet"
)

// maxCycles bounds every direct cell (the harness's deadlock guard).
const maxCycles = 2_000_000_000

// cellSpec is one direct simulation: a kernel build on a freshly
// constructed machine, run to completion and verified.
type cellSpec struct {
	Key     string // stable name; also the reference key
	Group   string // kernel registry name
	Variant string // "seq" or the barrier mechanism
	Make    func() kernels.Kernel
	Seq     bool         // sequential build on one core
	Kind    barrier.Kind // barrier mechanism (parallel builds)
	Cores   int
	Fabric  interconnect.Kind
	// Barriers is the number of barrier episodes the program executes
	// (microbenchmark cells only; 0 elsewhere).
	Barriers uint64
}

// knobs are the behaviour-invariant simulator switches of core.Config.
type knobs struct {
	NoFastPath  bool
	NoTranslate bool
}

// cellOut is what one direct cell produced and how long each layer took.
type cellOut struct {
	Cycles uint64
	Inst   uint64
	Stats  *sim.Stats
	Build  time.Duration // kernel construction + barrier generator + BuildPar/BuildSeq
	Vet    time.Duration // vet.Check
	Launch time.Duration // core.NewMachineChecked + barrier.Launch (or Load + StartSPMD)
	Run    time.Duration // Machine.Run
	Verify time.Duration // Kernel.Verify
}

// setup is the host time spent before the machine runs.
func (o cellOut) setup() time.Duration { return o.Build + o.Vet + o.Launch }

// total is the host time of the whole cell.
func (o cellOut) total() time.Duration { return o.setup() + o.Run + o.Verify }

// runDirect runs one cell through the public calls of each layer, timing
// every call and, when tr is non-nil, recording a span around it.
func runDirect(c cellSpec, kn knobs, tr *tracer, parent spanID, cellID int) (cellOut, error) {
	var out cellOut
	cs := tr.begin("cell", parent, cellID)
	defer tr.end(cs)

	threads := c.Cores
	if c.Seq {
		threads = 1
	}
	cfg := core.DefaultConfig(threads)
	cfg.Mem.Fabric = c.Fabric
	cfg.NoFastPath = kn.NoFastPath
	cfg.NoTranslate = kn.NoTranslate

	t := time.Now()
	sp := tr.begin("kernels.build", cs, cellID)
	k := c.Make()
	var gen barrier.Generator
	var prog *asm.Program
	var err error
	if c.Seq {
		prog, err = k.BuildSeq()
	} else if gen, err = barrier.NewExtra(c.Kind, threads, barrier.NewAllocator(cfg.Mem)); err == nil {
		prog, err = k.BuildPar(gen, threads)
	}
	tr.end(sp)
	out.Build = time.Since(t)
	if err != nil {
		return out, fmt.Errorf("%s: build: %w", c.Key, err)
	}

	t = time.Now()
	sp = tr.begin("vet.check", cs, cellID)
	err = vet.AsError(c.Key, vet.Check(prog, vet.Options{Threads: threads}))
	tr.end(sp)
	out.Vet = time.Since(t)
	if err != nil {
		return out, err
	}

	t = time.Now()
	sp = tr.begin("core.launch", cs, cellID)
	m, err := core.NewMachineChecked(cfg)
	if err == nil {
		if c.Seq {
			m.Load(prog)
			m.StartSPMD(prog.Entry, 1)
		} else {
			err = barrier.Launch(m, gen, prog, threads)
		}
	}
	tr.end(sp)
	out.Launch = time.Since(t)
	if err != nil {
		return out, fmt.Errorf("%s: launch: %w", c.Key, err)
	}

	t = time.Now()
	sp = tr.begin("core.run", cs, cellID)
	out.Cycles, err = m.Run(maxCycles)
	tr.end(sp)
	out.Run = time.Since(t)
	if err != nil {
		return out, fmt.Errorf("%s: run: %w", c.Key, err)
	}
	out.Inst = m.TotalCommitted()

	t = time.Now()
	sp = tr.begin("kernels.verify", cs, cellID)
	err = k.Verify(m.Sys.Mem, prog, threads)
	tr.end(sp)
	out.Verify = time.Since(t)
	if err != nil {
		return out, fmt.Errorf("%s: verify: %w", c.Key, err)
	}
	out.Stats = m.StatsReport()
	return out, nil
}
