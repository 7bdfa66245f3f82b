package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo fingerprints the machine and the code a result came from.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Source hashes every .go file and go.mod under the working
	// directory, so a result names its code even in a checkout that is
	// not a git repository.
	Source string `json:"source_sha256"`
}

func (h hostInfo) String() string {
	b, _ := json.Marshal(h) // plain struct of strings and ints
	return string(b)
}

func fingerprint() hostInfo {
	return hostInfo{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: gitCommit(), Source: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not hashed
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path + "\x00"))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
