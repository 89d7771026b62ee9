package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, reported with tracing off on every
// workload. They must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"join_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0. They must match BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"bench.error_rate", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.join_samples", "count"},
	{"tokens.encode_s", "s"},
	{"order.wall_s", "s"},
	{"order.shuffle_mb", "MB"},
	{"partition.map_s", "s"},
	{"partition.split_s", "s"},
	{"partition.segments", "count"},
	{"fragjoin.reduce_s", "s"},
	{"fragjoin.kernel_s", "s"},
	{"fragjoin.candidates", "count"},
	{"fragjoin.bitmap_reject_frac", "ratio"},
	{"fragjoin.partials", "count"},
	{"fragjoin.pair_yield", "ratio"},
	{"mapreduce.ordering.wall_s", "s"},
	{"mapreduce.ordering.map_s", "s"},
	{"mapreduce.ordering.reduce_s", "s"},
	{"mapreduce.ordering.shuffle_s", "s"},
	{"mapreduce.ordering.shuffle_mb", "MB"},
	{"mapreduce.filtering.wall_s", "s"},
	{"mapreduce.filtering.map_s", "s"},
	{"mapreduce.filtering.reduce_s", "s"},
	{"mapreduce.filtering.shuffle_s", "s"},
	{"mapreduce.filtering.shuffle_mb", "MB"},
	{"mapreduce.filtering.load_imbalance", "ratio"},
	{"mapreduce.verification.wall_s", "s"},
	{"mapreduce.verification.map_s", "s"},
	{"mapreduce.verification.reduce_s", "s"},
	{"mapreduce.verification.shuffle_s", "s"},
	{"mapreduce.verification.shuffle_mb", "MB"},
	{"mapreduce.verification.shuffle_records", "count"},
	{"mapreduce.spill_runs", "count"},
	{"mapreduce.sim_cluster_s", "s"},
	{"core.verify_candidates", "count"},
	{"core.verify_yield", "ratio"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"baseline.ridpairs_join_s", "s"},
	{"probeindex.build_s", "s"},
	{"probeindex.persist_s", "s"},
	{"probeindex.candidates_per_probe", "count"},
	{"probeindex.hit_yield", "ratio"},
	{"probeindex.log_size_max", "count"},
	{"probeindex.compactions", "count"},
	{"probeindex.maintain_s", "s"},
	{"probeindex.maintain_max_ms", "ms"},
	{"probeindex.wal_appends", "count"},
	{"probeindex.wal_synced_mb", "MB"},
	{"probeindex.probe_p50_us", "us"},
	{"probeindex.probe_p99_us", "us"},
	{"probeindex.insert_p50_us", "us"},
	{"probeindex.insert_p99_us", "us"},
	{"loadgen.sustained_ops_per_s", "1/s"},
	{"loadgen.lag_max_ms", "ms"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	mismatches        []string
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) get(name string) float64    { return r.values[name] }

// attempt counts one user operation; ok is false when it returned an error.
func (r *report) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// failOp marks an attempted operation whose answer was wrong.
func (r *report) failOp(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// wrong records a cross-check that failed outside any user operation.
func (r *report) wrong(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *report) errorRate() float64 {
	return ratio(float64(r.failed), float64(r.attempted))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish prints the notes, then the result line: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (r *report) finish(w io.Writer, traced bool) error {
	r.set("bench.error_rate", r.errorRate())
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "# MISMATCH:", m)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   r.failed == 0 && len(r.mismatches) == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// pinnedEnv are the environment knobs that change what the measured program
// does. The benchmark unsets them all: an unbounded shuffle buffer (no
// spilling), and the bitmap filter in auto mode with its width picked from
// the data.
var pinnedEnv = []string{"FSJOIN_MEMORY_BUDGET", "FSJOIN_BITMAP", "FSJOIN_BITMAP_WIDTH", "FSJOIN_SPILL_DIR"}

// pinEnvironment unsets every knob and fixes the Go runtime's own knobs.
func pinEnvironment() error {
	for _, name := range pinnedEnv {
		if err := os.Unsetenv(name); err != nil {
			return fmt.Errorf("unset %s: %w", name, err)
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(1<<63 - 1)
	return nil
}

// stamp describes the conditions of a run.
func stamp(workload string, seed int64, par int) string {
	return fmt.Sprintf("workload=%s seed=%d cpus=%d gomaxprocs=%d go=%s engine_parallelism=%d unset=%s GOGC=100",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), par, strings.Join(pinnedEnv, ","))
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuTime is the user and system CPU time the process has used, on all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
