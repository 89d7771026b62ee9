// Command fsbench is the repository's benchmark: it generates one workload
// from a seed, runs it against the library, checks every answer against
// internal/bruteforce and prints its metrics. See README.md for the
// workloads, the metrics and how to run one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is everything a workload run needs besides its input.
type runConfig struct {
	seed    int64
	window  time.Duration // measured time
	par     int           // engine parallelism
	workdir string
}

const (
	// minSamples is the fewest timed samples a median is taken over.
	minSamples = 3
	// baselineReps is how often RIDPairsPPJoin is timed.
	baselineReps = 3
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: selfjoin-zipf, selfjoin-stopword, rsjoin-query or probe-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "runs"), "directory for spans and index files")
	flag.Parse()
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if err := pinEnvironment(); err != nil {
		return err
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		par:     runtime.NumCPU(),
		workdir: filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, *trace)),
	}
	in, err := generate(*workload, *seed, full())
	if err != nil {
		return err
	}
	if err := os.RemoveAll(cfg.workdir); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	fmt.Println("#", stamp(*workload, *seed, cfg.par))

	tr := newTracer(*trace == 1, fmt.Sprintf("%s-%d-%d", *workload, *seed, time.Now().UnixNano()))
	out := newReport()
	if in.Name == wProbe {
		err = runProbe(in, cfg, tr, out)
	} else {
		err = runBatch(in, cfg, tr, out)
	}
	if err != nil {
		return err
	}
	if tr.on {
		path := filepath.Join(cfg.workdir, "spans.json")
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		out.note("%d spans written to %s", len(tr.spans), path)
		printSelfTimes(os.Stdout, selfTimes(tr.spans))
	}
	return out.finish(os.Stdout, tr.on)
}
