package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/simd"
)

// excludedCounters lists the StatsReport counter prefixes left out of the
// pinned digest: counters whose presence or value depends on a
// behaviour-invariant knob by design. translate.* exists only with the
// translation cache on, so the NoTranslate runs of the traced pass would
// otherwise differ from the reference.
var excludedCounters = []string{"translate."}

// refEntry pins one cell's simulated outcome: its cycles and a digest of
// its counters (direct cells) or of its result bytes (sweep cells).
type refEntry struct {
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"`
}

// reference maps cell keys to their pinned outcomes.
type reference map[string]refEntry

// refFile is the on-disk form of reference.json.
type refFile struct {
	Note  string    `json:"note"`
	Cells reference `json:"cells"`
}

const refNote = "Simulated cycles and digests pinned on the seed commit by `perfbench --pin`; " +
	"a cell whose outcome differs counts as failed."

// statsDigest hashes every counter not excluded by excludedCounters.
func statsDigest(s *sim.Stats) string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		if !excluded(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, snap[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func excluded(name string) bool {
	for _, p := range excludedCounters {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// bytesDigest hashes a sweep cell's canonical result bytes.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares an outcome with the pinned entry. A missing entry is
// itself a failure.
func (r reference) check(key string, got refEntry) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("%s: no pinned reference", key)
	}
	if want != got {
		return fmt.Errorf("%s: got cycles %d digest %.12s, pinned cycles %d digest %.12s",
			key, got.Cycles, got.Digest, want.Cycles, want.Digest)
	}
	return nil
}

func loadReference(path string) (reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var f refFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("decoding reference %s: %w", path, err)
	}
	return f.Cells, nil
}

func saveReference(path string, r reference) error {
	b, err := json.MarshalIndent(refFile{Note: refNote, Cells: r}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// pinReference runs every cell of the benchmark once at full sizes and
// writes its outcome as the reference: the direct cells of paper-kernels
// and barrier-storm, and every sweep-service cell for every seed of the
// chaos seed pool.
func pinReference(path string, opt options) error {
	ref, err := pinDirect(append(paperKernelCells(fullSizes), barrierStormCells(fullSizes)...))
	if err != nil {
		return err
	}
	pool := make([]uint64, seedPool)
	for i := range pool {
		pool[i] = uint64(i + 1)
	}
	if err := pinSweep(ref, fullSizes, pool, opt.Workers, opt.WorkDir); err != nil {
		return err
	}
	return saveReference(path, ref)
}

// pinDirect runs each direct cell once and returns its outcome.
func pinDirect(cells []cellSpec) (reference, error) {
	ref := make(reference)
	for _, c := range cells {
		o, err := runDirect(c, knobs{}, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		ref[c.Key] = refEntry{Cycles: o.Cycles, Digest: statsDigest(o.Stats)}
	}
	return ref, nil
}

// pinSweep submits the sweep over seeds to a fresh simd server, the path
// the benchmark checks, and adds every streamed cell's outcome to ref.
func pinSweep(ref reference, sz sizes, seeds []uint64, workers int, workDir string) error {
	spec := sweepSpec(sz, seeds)
	sw, serr := simd.Normalize(spec, simd.DefaultLimits())
	if serr != nil {
		return serr
	}
	dir, err := os.MkdirTemp(workDir, "pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(dir, dir, workers)
	if err != nil {
		return err
	}
	defer srv.ts.Close()
	res, _, _, _, err := submit(srv.url, spec)
	if err != nil {
		return err
	}
	if len(res) != len(sw.Cells) {
		return fmt.Errorf("sweep streamed %d cells, the spec has %d", len(res), len(sw.Cells))
	}
	for i, b := range res {
		r, err := simd.ParseResult(b)
		if err != nil {
			return fmt.Errorf("%s: %w", sw.Cells[i].Key, err)
		}
		if r.Status != "ok" {
			return fmt.Errorf("%s: status %s: %s", sw.Cells[i].Key, r.Status, r.Error)
		}
		ref[sweepKey(sw.Cells[i])] = refEntry{Cycles: r.Cycles, Digest: bytesDigest(b)}
	}
	return nil
}
