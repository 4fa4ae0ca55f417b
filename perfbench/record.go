package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runRecord identifies what a result was measured on.
type runRecord struct {
	commit, tree, goVersion, cpu string
	nproc, gomaxprocs            int
	seed                         uint64
	workload                     string
	traced                       bool
}

func newRunRecord(root string, seed uint64, workload string, traced bool) runRecord {
	return runRecord{
		commit:     gitHead(root),
		tree:       treeHash(root),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		seed:       seed,
		workload:   workload,
		traced:     traced,
	}
}

func (r runRecord) line() string {
	return fmt.Sprintf("run: workload=%s seed=%d traced=%v commit=%s tree=%s go=%s nproc=%d gomaxprocs=%d cpu=%q",
		r.workload, r.seed, r.traced, r.commit, r.tree, r.goVersion, r.nproc, r.gomaxprocs, r.cpu)
}

// gitHead reads the checked-out commit from .git without running git;
// "none" when the tree is not a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// treeHash fingerprints the Go sources the benchmark builds from, so a
// result is traceable to its code even outside a git checkout.
func treeHash(root string) string {
	var files []string
	for _, dir := range []string{"internal", "perfbench"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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
