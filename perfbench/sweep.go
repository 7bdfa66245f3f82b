package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/simd"
)

// seedPool is the set of chaos seeds a sweep draws from. Every cell of
// every pool seed is pinned in reference.json, so each result is checked
// whatever --seed the run gets.
const seedPool = 8

// setupReps is how many times a sweep pass repeats its spec validation.
const setupReps = 3

// sweepMechanisms and sweepChaos span the sweep-service cross product.
var (
	sweepMechanisms = []string{"filter-d", "filter-i-pp", "sw-tree", "hw-net"}
	sweepChaos      = []string{"none", "bus-delay"}
)

// chaosSeeds draws sz.SweepSeeds distinct seeds from 1..seedPool.
func chaosSeeds(seed uint64, n int) []uint64 {
	r := sim.NewRand(seed)
	perm := make([]uint64, seedPool)
	for i := range perm {
		perm[i] = uint64(i + 1)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

// sweepSpec is the researcher's loop: every registry kernel × four
// mechanisms × two chaos profiles × the drawn seeds.
func sweepSpec(sz sizes, seeds []uint64) simd.Spec {
	return simd.Spec{
		Kernels:    kernels.Names(),
		N:          sz.SweepN,
		Loops:      1,
		Mechanisms: sweepMechanisms,
		Threads:    sz.SweepThreads,
		Seeds:      seeds,
		Chaos:      sweepChaos,
	}
}

// streamLine is the part of a simd NDJSON line the client reads.
type streamLine struct {
	Type   string       `json:"type"`
	Index  *int         `json:"index"`
	Cached bool         `json:"cached"`
	Result *simd.Result `json:"result"`
	Error  *simd.Error  `json:"error"`
}

// submit posts spec to a simd server and reads the stream to its end. It
// returns each cell's canonical result bytes and whether it was served
// from the cache, the time to the first cell line, and the longest gap
// between consecutive cell lines.
func submit(url string, spec simd.Spec) (res [][]byte, cached []bool, ttfr, gapMax time.Duration, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	start := time.Now()
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("submitting sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, nil, 0, 0, fmt.Errorf("sweep rejected: %s: %s", resp.Status, b)
	}
	rd := bufio.NewReader(resp.Body)
	last := start
	done := false
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var l streamLine
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("decoding stream line: %w", err)
			}
			switch l.Type {
			case "cell":
				now := time.Now()
				if res == nil {
					ttfr = now.Sub(start)
				} else if g := now.Sub(last); g > gapMax {
					gapMax = g
				}
				last = now
				if l.Index == nil || *l.Index != len(res) || l.Result == nil {
					return nil, nil, 0, 0, fmt.Errorf("stream out of order at cell %d", len(res))
				}
				res = append(res, l.Result.Bytes())
				cached = append(cached, l.Cached)
			case "done":
				done = true
			case "error":
				return nil, nil, 0, 0, fmt.Errorf("sweep failed: %v", l.Error)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, nil, 0, 0, fmt.Errorf("reading stream: %w", rerr)
		}
	}
	if !done {
		return nil, nil, 0, 0, fmt.Errorf("stream ended without done after %d cells", len(res))
	}
	return res, cached, ttfr, gapMax, nil
}

// server is one in-process simd server behind httptest.
type server struct {
	ts  *httptest.Server
	url string
}

// startServer builds a simd server with its cache in cacheDir and its
// journal in a fresh directory under dir. NewServer does not create the
// journal directory, so it is made here.
func startServer(dir, cacheDir string, workers int) (*server, error) {
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, err
	}
	srv, err := simd.NewServer(simd.Config{Workers: workers, CacheDir: cacheDir, JournalDir: jdir})
	if err != nil {
		return nil, fmt.Errorf("starting simd: %w", err)
	}
	ts := httptest.NewServer(srv)
	return &server{ts: ts, url: ts.URL}, nil
}

func (s *server) stats() (simd.Stats, error) {
	var st simd.Stats
	resp, err := http.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// sweepPass runs the cold sweep on a fresh server and cache, then
// restarts the server on the same cache directory and resubmits the spec
// warm: every warm cell must come from the cache with the cold bytes.
func sweepPass(sz sizes, seed uint64, workers int, workDir string, ref reference, tr *tracer) passOut {
	p := passOut{Counters: newCounters()}
	fail := func(err error) passOut {
		p.Failed++
		p.Attempted++
		p.Failures = append(p.Failures, err.Error())
		return p
	}
	ps := tr.begin("pass", 0, -1)
	defer tr.end(ps)

	dir, err := os.MkdirTemp(workDir, "sweep-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	if err := os.Mkdir(cacheDir, 0o755); err != nil {
		return fail(err)
	}
	spec := sweepSpec(sz, chaosSeeds(seed, sz.SweepSeeds))

	// Set-up: validate the spec (Normalize vets every program) and start
	// the cold server. Normalize is repeated setupReps times and its
	// median taken, so one pass gives a steady set-up figure. The server
	// normalizes each submission itself, so the wall starts after these
	// calls: it holds the two Normalize calls of the researcher's loop,
	// not the benchmark's repetitions.
	var sw *simd.Sweep
	var norm []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		sp := tr.begin("simd.normalize", ps, -1)
		var serr *simd.Error
		sw, serr = simd.Normalize(spec, simd.DefaultLimits())
		tr.end(sp)
		norm = append(norm, time.Since(t).Seconds())
		if serr != nil {
			return fail(serr)
		}
	}
	p.Normalize = time.Duration(median(norm) * 1e9)
	start := time.Now()
	t := start
	sp := tr.begin("simd.start", ps, -1)
	cold, err := startServer(dir, cacheDir, workers)
	tr.end(sp)
	p.Setup = p.Normalize + time.Since(t)
	if err != nil {
		return fail(err)
	}

	t = time.Now()
	sp = tr.begin("simd.sweep.cold", ps, -1)
	coldRes, _, ttfr, gap, err := submit(cold.url, spec)
	tr.end(sp)
	p.ColdWall = time.Since(t)
	cold.ts.Close()
	if err != nil {
		return fail(err)
	}
	p.TTFR, p.StreamGapMax, p.Cells = ttfr, gap, len(coldRes)
	for i, b := range coldRes {
		p.Attempted++
		if err := checkSweepCell(sw.Cells[i], b, ref); err != nil {
			p.Failed++
			p.Failures = append(p.Failures, err.Error())
			continue
		}
		r, _ := simd.ParseResult(b)
		p.SimCycles += r.Cycles
	}

	t = time.Now()
	sp = tr.begin("simd.start", ps, -1)
	warm, err := startServer(dir, cacheDir, workers)
	tr.end(sp)
	p.Setup += time.Since(t)
	if err != nil {
		return fail(err)
	}
	defer warm.ts.Close()
	t = time.Now()
	sp = tr.begin("simd.sweep.warm", ps, -1)
	warmRes, cached, _, _, err := submit(warm.url, spec)
	tr.end(sp)
	p.WarmWall = time.Since(t)
	if err != nil {
		return fail(err)
	}
	for i := range coldRes {
		p.Attempted++
		switch {
		case i >= len(warmRes):
			err = fmt.Errorf("%s: missing from the warm sweep", sw.Cells[i].Key)
		case !bytes.Equal(warmRes[i], coldRes[i]):
			err = fmt.Errorf("%s: warm bytes differ from cold:\n  cold %s\n  warm %s", sw.Cells[i].Key, coldRes[i], warmRes[i])
		case !cached[i]:
			err = fmt.Errorf("%s: warm cell not served from the cache", sw.Cells[i].Key)
		default:
			continue
		}
		p.Failed++
		p.Failures = append(p.Failures, err.Error())
	}
	if st, err := warm.stats(); err == nil {
		p.CacheHits, p.CacheMiss = st.CacheHits, st.CacheMisses
	} else {
		return fail(err)
	}
	p.Wall = time.Since(start)
	return p
}

// checkSweepCell applies the output checks to one cold cell: status ok
// (RunCell verifies every kernel against its Go reference, so a failed
// Verify is an error status) and cycles and bytes as pinned.
func checkSweepCell(c simd.Cell, b []byte, ref reference) error {
	r, err := simd.ParseResult(b)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Key, err)
	}
	if r.Status != "ok" {
		return fmt.Errorf("%s: status %s: %s", c.Key, r.Status, r.Error)
	}
	return ref.check(sweepKey(c), refEntry{Cycles: r.Cycles, Digest: bytesDigest(b)})
}

// sweepKey names a sweep cell in the reference; the spec's n is part of
// it because the cell key itself does not carry sizes.
func sweepKey(c simd.Cell) string {
	return fmt.Sprintf("sweep-service/n%d/t%d/%s", c.N, c.Threads, c.Key)
}

// directCells calls simd.RunCell for every cell of the sweep on the
// calling goroutine: per-cell host times without the pool, each result
// checked like a cold cell.
func directCells(sz sizes, seed uint64, ref reference, tr *tracer, ids *int) (times []time.Duration, attempted, failed int, failures []string) {
	sw, serr := simd.Normalize(sweepSpec(sz, chaosSeeds(seed, sz.SweepSeeds)), simd.DefaultLimits())
	if serr != nil {
		return nil, 1, 1, []string{serr.Error()}
	}
	for _, c := range sw.Cells {
		*ids++
		t := time.Now()
		sp := tr.begin("simd.runcell", 0, *ids)
		res, _ := simd.RunCell(context.Background(), c) // its error is in res.Status, which the check reads
		tr.end(sp)
		times = append(times, time.Since(t))
		attempted++
		if err := checkSweepCell(c, res.Bytes(), ref); err != nil {
			failed++
			failures = append(failures, err.Error())
		}
	}
	return times, attempted, failed, failures
}
