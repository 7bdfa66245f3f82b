// Command perfbench is the repository's benchmark. It measures the
// simulator end to end and layer by layer on three workloads:
//
//   - paper-kernels: the Table 1 kernels on one core, and on 16 cores with
//     filter-d and with sw-central barriers (the paper's own evaluation);
//   - barrier-storm: the Figure 4 barrier microbenchmark with filter-d,
//     filter-i-pp and hw-net at 16, 32 and 64 cores on the bus and the
//     mesh, plus the two lock kernels;
//   - sweep-service: an in-process simd server running a cold sweep and
//     the same sweep again from its cache.
//
// It times calls into each package's public functions from outside; it
// changes no program code. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-kernels --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans and a CPU profile and prints the per-layer metrics. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. NOTES.md explains each
// workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. N is its sample count (passes or cells
// behind a median; 1 for exact counts), recorded beside the result.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"-"`
	Samples []float64 `json:"-"` // per-pass values behind a median
}

func mv(v float64, unit string, n int) metric { return metric{Value: v, Unit: unit, N: n} }

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one run.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	Ref      reference // pinned outcomes every cell is checked against
	WorkDir  string    // scratch space for simd caches and journals
	OutDir   string    // where result records and spans go ("" = nowhere)
	Workers  int       // simd pool size
}

var workloads = []string{"paper-kernels", "barrier-storm", "sweep-service"}

// refPath is the pinned reference, relative to the repository root.
var refPath = filepath.Join("perfbench", "reference.json")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.Workload, "workload", "", fmt.Sprintf("workload: one of %v", workloads))
	fs.Uint64Var(&opt.Seed, "seed", 1, "workload seed (sweep-service chaos seeds)")
	fs.Float64Var(&opt.Seconds, "seconds", 20, "measurement time")
	traceN := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	pin := fs.Bool("pin", false, "run every cell once and rewrite the reference file")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "result records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.Trace = *traceN == 1
	opt.Sizes = fullSizes
	opt.Workers = runtime.NumCPU()
	opt.WorkDir = filepath.Join(filepath.Dir(*outDir), "work")
	opt.OutDir = *outDir
	for _, d := range []string{opt.WorkDir, opt.OutDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *pin {
		if err := pinReference(refPath, opt); err != nil {
			fmt.Fprintln(stderr, "perfbench: pin:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference(refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt.Ref = ref
	res, lines, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runWorkload runs one workload for opt.Seconds and returns its result
// and the human-readable report lines that precede it.
func runWorkload(opt options) (result, []string, error) {
	var r *runner
	switch opt.Workload {
	case "paper-kernels":
		r = &runner{opt: opt, cells: paperKernelCells(opt.Sizes)}
	case "barrier-storm":
		r = &runner{opt: opt, cells: barrierStormCells(opt.Sizes)}
	case "sweep-service":
		r = &runner{opt: opt, sweep: true}
	default:
		return result{}, nil, fmt.Errorf("unknown workload %q (have %v)", opt.Workload, workloads)
	}
	host := fingerprint()
	r.lines = append(r.lines, "host "+host.String())
	var m map[string]metric
	if opt.Trace {
		var err error
		if m, err = r.traced(); err != nil {
			return result{}, nil, err
		}
	} else {
		m = r.untraced()
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.lines = append(r.lines, fmt.Sprintf("metric %-34s %16.6g %-8s n=%d", n, m[n].Value, m[n].Unit, m[n].N))
	}
	for _, n := range metricNames(opt.Trace) {
		mm, ok := m[n]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = mm
	}
	r.lines = append(r.lines, fmt.Sprintf("failed_frac %.6g (%d of %d cells failed)",
		div(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
	for i, f := range r.failures {
		if i == 10 {
			r.lines = append(r.lines, fmt.Sprintf("FAIL ... and %d more", len(r.failures)-i))
			break
		}
		r.lines = append(r.lines, "FAIL "+f)
	}
	if opt.OutDir != "" {
		if err := writeRecord(opt, host, res, m); err != nil {
			return result{}, nil, err
		}
	}
	return res, r.lines, nil
}

// runner holds one workload's state across its passes.
type runner struct {
	opt   options
	cells []cellSpec // direct workloads
	sweep bool

	ids               int // cell ids for spans
	attempted, failed int
	failures          []string
	lines             []string
}

// pass runs one pass of the workload and folds its checks into the
// runner's counts. In an untraced run, the host-speed calibration runs
// just before and just after the pass, outside its timings. The traced
// run does not calibrate, so its profile and allocation counts hold no
// calibration work.
func (r *runner) pass(kn knobs, tr *tracer) passOut {
	var cal calib
	calibrate := func() {
		switch {
		case r.opt.Trace:
		case r.sweep: // the pool keeps every core busy
			cal.runPerCPU(calibChunks)
		default:
			cal.run(calibChunks)
		}
	}
	calibrate()
	var p passOut
	if r.sweep {
		p = sweepPass(r.opt.Sizes, r.opt.Seed, r.opt.Workers, r.opt.WorkDir, r.opt.Ref, tr)
	} else {
		p = directPass(r.cells, kn, r.opt.Ref, tr, &r.ids)
	}
	calibrate()
	p.Cal = cal
	r.count(p.Attempted, p.Failed, p.Failures)
	return p
}

func (r *runner) count(attempted, failed int, failures []string) {
	r.attempted += attempted
	r.failed += failed
	r.failures = append(r.failures, failures...)
}

// untraced measures the end-to-end metrics: one warm-up pass, then passes
// until the time is up, reported as medians over the passes. Each pass's
// host times are scaled to the reference host speed by the calibration
// run around that pass (calib.go); the raw figures are printed beside.
func (r *runner) untraced() map[string]metric {
	first := r.pass(knobs{}, nil)
	var ps []passOut
	start := time.Now()
	for len(ps) == 0 || time.Since(start).Seconds() < r.opt.Seconds {
		ps = append(ps, r.pass(knobs{}, nil))
	}
	perPass := func(unit string, f func(passOut) float64) metric {
		xs := over(ps, f)
		return metric{Value: median(xs), Unit: unit, N: len(xs), Samples: xs}
	}
	// at is a host time of pass p at the reference speed.
	at := func(p passOut, d time.Duration) float64 { return secs(d) * p.Cal.speed() }
	m := map[string]metric{
		"wall_s":           perPass("s", func(p passOut) float64 { return at(p, p.Wall) }),
		"setup_s":          perPass("s", func(p passOut) float64 { return at(p, p.Setup) }),
		"cells_per_s":      perPass("cells/s", func(p passOut) float64 { return div(float64(p.Cells), at(p, r.served(p))) }),
		"sim_cycles_per_s": perPass("cyc/s", func(p passOut) float64 { return div(float64(p.SimCycles), at(p, r.simTime(p))) }),
		"sim_cycles":       perPass("cycles", func(p passOut) float64 { return float64(p.SimCycles) }),
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MB", N: 1},
		"host.speed":       perPass("ratio", func(p passOut) float64 { return p.Cal.speed() }),
		"raw.wall_s":       perPass("s", func(p passOut) float64 { return secs(p.Wall) }),
		"raw.setup_s":      perPass("s", func(p passOut) float64 { return secs(p.Setup) }),
	}
	if !r.sweep {
		r.lines = append(r.lines, variantShares(r.cells, first))
	}
	if r.opt.Workload == "paper-kernels" {
		r.lines = append(r.lines, modelLines(r.cells, first)...)
	}
	return m
}

// served is the host time the pass's cells took to come back: the whole
// pass for the direct workloads, the cold sweep for sweep-service.
func (r *runner) served(p passOut) time.Duration {
	if r.sweep {
		return p.ColdWall
	}
	return p.Wall
}

// simTime is the host time behind the pass's simulated cycles: time inside
// Machine.Run for the direct workloads, the cold sweep for sweep-service.
func (r *runner) simTime(p passOut) time.Duration {
	if r.sweep {
		return p.ColdWall
	}
	return p.RunTime
}

// traced measures the per-layer metrics. Untraced and traced passes
// alternate under a CPU profile (their difference is the tracing
// overhead); then the direct workloads make interleaved on/off runs of the
// behaviour-invariant knobs and sweep-service runs every cell directly.
func (r *runner) traced() (map[string]metric, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr := newTracer()
	var plain, traced []passOut
	var allocMB, gcs []float64
	start := time.Now()
	budget := r.opt.Seconds / 2
	for len(traced) == 0 || time.Since(start).Seconds() < budget {
		plain = append(plain, r.pass(knobs{}, nil))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traced = append(traced, r.pass(knobs{}, tr))
		runtime.ReadMemStats(&after)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
	}
	pprof.StopCPUProfile()
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	var fastpath, translate float64
	var rounds int
	var cellTimes []float64
	var busy float64
	if r.sweep {
		times, a, f, fs := directCells(r.opt.Sizes, r.opt.Seed, r.opt.Ref, tr, &r.ids)
		r.count(a, f, fs)
		var sum time.Duration
		for _, t := range times {
			cellTimes = append(cellTimes, ms(t))
			sum += t
		}
		coldWall := medianOver(traced, func(p passOut) float64 { return secs(p.ColdWall) })
		busy = div(sum.Seconds(), float64(r.opt.Workers)*coldWall)
	} else {
		fastpath, translate, rounds = r.onOff(start)
		for _, p := range append(plain, traced...) {
			for _, t := range p.CellTimes {
				cellTimes = append(cellTimes, ms(t))
			}
		}
		busy = medianOver(traced, func(p passOut) float64 {
			var sum time.Duration
			for _, t := range p.CellTimes {
				sum += t
			}
			return div(sum.Seconds(), p.Wall.Seconds())
		})
	}
	if err := tr.checkNesting(); err != nil {
		r.count(1, 1, []string{"trace: " + err.Error()})
	}
	if r.opt.OutDir != "" {
		path := filepath.Join(r.opt.OutDir, fmt.Sprintf("%s-seed%d-spans.json", r.opt.Workload, r.opt.Seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		r.lines = append(r.lines, "spans "+path)
	}

	nt := len(traced)
	self := tr.selfTimes()
	perPass := func(name string) float64 { return ms(self[name]) / float64(nt) }
	count := make(map[string]int)
	for _, s := range tr.spans {
		count[s.Name]++
	}
	spanNames := make([]string, 0, len(self))
	for n := range self {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	for _, n := range spanNames {
		r.lines = append(r.lines, fmt.Sprintf("span %-18s %6d spans, self time %12.3f ms in all", n, count[n], ms(self[n])))
	}
	all := append(append([]passOut(nil), plain...), traced...)
	c := traced[0].Counters
	m := map[string]metric{
		"kernels.build_ms":             mv(perPass("kernels.build"), "ms", nt),
		"vet.check_ms":                 mv(perPass("vet.check"), "ms", nt),
		"core.launch_ms":               mv(perPass("core.launch"), "ms", nt),
		"core.run_ms":                  mv(perPass("core.run"), "ms", nt),
		"kernels.verify_ms":            mv(perPass("kernels.verify"), "ms", nt),
		"simd.normalize_ms":            mv(medianOver(traced, func(p passOut) float64 { return ms(p.Normalize) }), "ms", nt),
		"core.host_ns_per_inst":        mv(medianOver(all, func(p passOut) float64 { return div(float64(p.RunTime.Nanoseconds()), float64(p.SimInst)) }), "ns/inst", len(all)),
		"core.host_ns_per_cycle":       mv(medianOver(all, func(p passOut) float64 { return div(float64(p.RunTime.Nanoseconds()), float64(p.SimCycles)) }), "ns/cyc", len(all)),
		"sim_inst_per_s":               mv(medianOver(all, func(p passOut) float64 { return div(float64(p.SimInst), secs(p.RunTime)) }), "inst/s", len(all)),
		"ttfr_ms":                      mv(medianOver(all, func(p passOut) float64 { return ms(p.TTFR) }), "ms", len(all)),
		"warm_sweep_s":                 mv(medianOver(all, func(p passOut) float64 { return secs(p.WarmWall) }), "s", len(all)),
		"barrier_cyc":                  mv(div(float64(traced[0].BarrierCycles), float64(traced[0].Barriers)), "cycles", 1),
		"simd.cache_hit_ratio":         mv(medianOver(all, func(p passOut) float64 { return ratio(uint64(p.CacheHits), uint64(p.CacheMiss)) }), "ratio", len(all)),
		"simd.stream_gap_max_ms":       mv(medianOver(all, func(p passOut) float64 { return ms(p.StreamGapMax) }), "ms", len(all)),
		"harness.cell_ms.p50":          mv(quantile(cellTimes, 0.5), "ms", len(cellTimes)),
		"harness.cell_ms.p90":          mv(quantile(cellTimes, 0.9), "ms", len(cellTimes)),
		"harness.pool_busy_frac":       mv(busy, "ratio", nt),
		"core.fastpath_gain":           mv(fastpath, "ratio", rounds),
		"cpu.translate_gain":           mv(translate, "ratio", rounds),
		"runtime.alloc_mb":             mv(median(allocMB), "MB", nt),
		"runtime.gc_count":             mv(median(gcs), "count", nt),
		"trace.overhead_ms":            mv(medianOver(traced, func(p passOut) float64 { return ms(p.Wall) })-medianOver(plain, func(p passOut) float64 { return ms(p.Wall) }), "ms", nt),
		"cpu.ipc":                      mv(div(float64(c.get("core.instructions_committed")), float64(c.get("core.cycles_total"))), "inst/cyc", 1),
		"cpu.fence_stall_cycles":       mv(float64(c.get("core.fence_stall_cycles")), "cycles", 1),
		"cpu.sc_failures":              mv(float64(c.get("core.sc_failures")), "count", 1),
		"cpu.branch_mispredicts":       mv(float64(c.get("core.branch_mispredicts")), "count", 1),
		"cpu.translate_hit_ratio":      mv(ratio(c.get("translate.hits"), c.get("translate.misses")), "ratio", 1),
		"mem.l1d_miss_ratio":           mv(ratio(c.get("l1d.misses"), c.get("l1d.hits")), "ratio", 1),
		"mem.l1d_mshr_full_retries":    mv(float64(c.get("l1d.mshr_full_retries")), "count", 1),
		"mem.l2_hits":                  mv(float64(c.get("l2.hits")), "count", 1),
		"mem.l2_invalidations":         mv(float64(c.get("l2.invalidations_seen")), "count", 1),
		"mem.l3_misses":                mv(float64(c.get("l3.misses_to_dram")), "count", 1),
		"interconnect.req_busy_frac":   mv(div(float64(c.busy), float64(c.busyWall)), "ratio", 1),
		"interconnect.max_req_queue":   mv(float64(c.maxSuffix(".max_request_queue")), "count", 1),
		"filter.fills_parked":          mv(float64(c.get("filter.fills_parked")), "count", 1),
		"filter.fills_released":        mv(float64(c.get("filter.fills_released")), "count", 1),
		"filter.lock_grants":           mv(float64(c.get("sync.lock.grants")), "count", 1),
		"filter.lock_serviced_in_hold": mv(float64(c.get("sync.lock.serviced_in_hold")), "count", 1),
	}
	for _, l := range shareLayers {
		m[l+".host_share"] = mv(shares[l], "ratio", 1)
	}
	return m, nil
}

// onOff runs every cell with the default configuration, with NoFastPath
// and with NoTranslate, rotating the order per cell so host drift cancels,
// until the run's time is up. Each gain is the knob-off run time over the
// default run time, summed over the same cells. Every run is checked
// against the reference, which excludes the knob-dependent counters.
func (r *runner) onOff(start time.Time) (fastpath, translate float64, rounds int) {
	variants := []knobs{{}, {NoFastPath: true}, {NoTranslate: true}}
	var sum [3]time.Duration
	for rounds == 0 || time.Since(start).Seconds() < r.opt.Seconds {
		for i, c := range r.cells {
			for j := range variants {
				v := (i + rounds + j) % len(variants)
				r.ids++
				o, err := runDirect(c, variants[v], nil, 0, r.ids)
				if err == nil {
					err = r.opt.Ref.check(c.Key, refEntry{Cycles: o.Cycles, Digest: statsDigest(o.Stats)})
				}
				if err != nil {
					r.count(1, 1, []string{fmt.Sprintf("%+v: %v", variants[v], err)})
					continue
				}
				r.count(1, 0, nil)
				sum[v] += o.Run
			}
		}
		rounds++
	}
	return div(sum[1].Seconds(), sum[0].Seconds()), div(sum[2].Seconds(), sum[0].Seconds()), rounds
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeRecord keeps the run's full record: fingerprint, sizes, every
// metric with its sample count, and the checks.
func writeRecord(opt options, host hostInfo, res result, m map[string]metric) error {
	type rec struct {
		Value   float64   `json:"value"`
		Unit    string    `json:"unit"`
		N       int       `json:"n"`
		Samples []float64 `json:"samples,omitempty"`
	}
	all := make(map[string]rec, len(m))
	for n, v := range m {
		all[n] = rec{v.Value, v.Unit, v.N, v.Samples}
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": opt.Workload, "seed": opt.Seed, "seconds": opt.Seconds, "trace": opt.Trace,
		"sizes": opt.Sizes.Name, "host": host, "correct": res.Correct,
		"attempted": res.Attempted, "failed": res.Failed, "metrics": all,
	}, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if opt.Trace {
		trace = 1
	}
	path := filepath.Join(opt.OutDir, fmt.Sprintf("%s-seed%d-trace%d.json", opt.Workload, opt.Seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
