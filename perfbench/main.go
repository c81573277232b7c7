// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload from a seed for a fixed time, checks every output, and prints
// the metrics BENCHMARK.json names as one JSON object on the last line of
// standard output:
//
//	kv-read   gets, short scans and puts served over loopback HTTP (stm)
//	kv-txn    transfer batches, group audits and gets served over HTTP (mvstm)
//	lib-bank  transfers, audits and reads on the stm library, no server
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer ledger and writes its spans under
// .bench_build/. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// Seed 1 is for development; seed 7919 is kept out of development and
// confirms a claimed gain.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloads = []string{"kv-read", "kv-txn", "lib-bank"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "kv-read, kv-txn or lib-bank")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	smoke := flag.Bool("smoke", false, "run every workload briefly, untraced and traced, and check that every metric in BENCHMARK.json is reported")
	outDir := flag.String("out", filepath.Join(".bench_build", "spans"), "directory for the span files of traced runs")
	flag.Parse()
	if runtime.NumCPU() < loadWorkers || runtime.GOMAXPROCS(0) < loadWorkers {
		fmt.Fprintf(os.Stderr, "perfbench: %d load goroutines need as many cores; this host has %d (GOMAXPROCS %d)\n",
			loadWorkers, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	if err := loadSpec(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *smoke {
		if err := runSmoke(*seed, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run runs one workload, prints its notes and metrics for a reader, and
// returns the result line.
func run(wl string, seed int64, d time.Duration, traced bool, outDir string) (*resultOut, error) {
	var r *report
	var err error
	switch wl {
	case "kv-read", "kv-txn":
		r, err = runServed(wl, seed, d, traced, outDir)
	case "lib-bank":
		r, err = runBank(seed, d, traced, outDir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", wl, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl, err)
	}
	host, err := json.Marshal(hostInfo())
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", wl, seed, d.Seconds(), traced)
	fmt.Printf("host %s\n", host)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("fail_ratio %.6f ratio (%d failed of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if r.checkErr != nil {
		fmt.Println("check failed:", r.checkErr)
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	out := &resultOut{Correct: r.checkErr == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", wl, d.Name)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Printf("%-36s %14.4f %s\n", d.Name, v, d.Unit)
	}
	return out, nil
}

// host identifies what a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree_sha256,omitempty"`
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: gitCommit(),
	}
	if h.Commit == "none" {
		h.Tree = treeHash()
	}
	return h
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

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "none", and the tree hash
// identifies the source instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "none"
}

// treeHash hashes every Go source and go.mod file under the current
// directory, outside .git and .bench_build.
func treeHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runSmoke runs every workload BENCHMARK.json names for 3 seconds,
// untraced and traced, and checks that each run is correct, fails
// nothing and measures every metric BENCHMARK.json names (run fails on a
// metric that was not measured).
func runSmoke(seed int64, outDir string) error {
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.Name, seed, 3*time.Second, traced, outDir)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			runtime.GC()
		}
	}
	return nil
}
