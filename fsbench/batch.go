package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/core"
	"fsjoin/internal/filters"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/order"
	"fsjoin/internal/partition"
	"fsjoin/internal/result"
	"fsjoin/internal/ridpairs"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// collections is a workload's input after the tokens layer has encoded it.
type collections struct {
	r, s *tokens.Collection // s is nil for a self-join
	dict *tokens.Dictionary
}

// encode builds the Collections a user would hand to the join: one shared
// dictionary, word tokenisation.
func encode(in *input) collections {
	d := tokens.NewDictionary()
	c := collections{r: d.Encode(in.R, tokens.WordTokenizer{}), dict: d}
	if in.S != nil {
		c.s = d.Encode(in.S, tokens.WordTokenizer{})
	}
	return c
}

// coreOptions are the public API's defaults for FS-Join (fsjoin.Options{}):
// Even-TF pivots, 30 fragments, 10 length pivots, the Prefix kernel, the
// bitmap filter in auto mode and one engine worker per core.
func coreOptions(in *input, par int) core.Options {
	return core.Options{
		Fn:               in.Fn,
		Theta:            in.Theta,
		PivotMethod:      partition.EvenTF,
		HorizontalPivots: 10,
		JoinMethod:       fragjoin.Prefix,
		LocalParallelism: par,
	}
}

func (c collections) fsjoin(opt core.Options) (*core.Result, error) {
	if c.s == nil {
		return core.SelfJoin(c.r, opt)
	}
	return core.Join(c.r, c.s, opt)
}

func (c collections) ridpairs(in *input, par int) (*ridpairs.Result, error) {
	opt := ridpairs.Options{Fn: in.Fn, Theta: in.Theta, Parallelism: par}
	if c.s == nil {
		return ridpairs.SelfJoin(c.r, opt)
	}
	return ridpairs.Join(c.r, c.s, opt)
}

func (c collections) oracle(in *input) []result.Pair {
	if c.s == nil {
		return bruteforce.SelfJoin(c.r, in.Fn, in.Theta)
	}
	return bruteforce.Join(c.r, c.s, in.Fn, in.Theta)
}

// joinSample is one FS-Join execution and what it cost.
type joinSample struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	res   *core.Result
}

// timedJoin runs one FS-Join. No collection is forced between joins: after
// one, the runtime hands the freed heap back to the OS in the background,
// and the next join's page faults then vary with how much it has returned.
// With tracing on, the call gets a core span and each stage a derived
// mapreduce span.
func timedJoin(c collections, opt core.Options, tr *tracer, parent int) (joinSample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin(parent, "core.Join")
	c0 := cpuTime()
	t0 := time.Now()
	res, err := c.fsjoin(opt)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return joinSample{}, err
	}
	at := tr.startOf(id)
	for _, st := range res.Pipeline.Stages() {
		at = tr.derived(id, "mapreduce."+st.Job, at, st.WallTime)
	}
	return joinSample{wall: wall, cpu: cpu, alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC, res: res}, nil
}

// runBatch measures one of the three join workloads.
func runBatch(in *input, cfg runConfig, tr *tracer, out *report) error {
	root := tr.begin(0, "bench.run")
	defer tr.end(root)

	// The collections every join runs on; the timed reps encode again.
	id := tr.begin(root, "tokens.Encode")
	cols := encode(in)
	tr.end(id)

	opt := coreOptions(in, cfg.par)
	// The warm-up join fills lazily built state and gives the answer every
	// timed join is checked against; it is not timed.
	warm, err := cols.fsjoin(opt)
	out.attempt(err == nil)
	if err != nil {
		return fmt.Errorf("warm-up join: %w", err)
	}

	var setup []float64
	st := newSetupTimer(func() {
		runtime.GC()
		t0 := time.Now()
		encode(in)
		setup = append(setup, time.Since(t0).Seconds())
	})

	window := cfg.window
	if tr.on {
		window /= 2 // the other half runs traced, for trace_overhead
	}
	untraced, err := joinLoop(cols, opt, window, newTracer(false, ""), 0, warm.Pairs, st, out)
	if err != nil {
		return err
	}
	out.set("setup_s", median(setup))
	out.set("tokens.encode_s", median(setup))
	rusage := peakRSSMB()
	walls, cpus, allocs, gcs, sims := summarize(untraced)
	out.set("join_s", median(walls))
	out.set("runtime.cpu_s", median(cpus))
	out.set("alloc_mb", median(allocs))
	out.set("peak_rss_mb", rusage)
	out.set("mapreduce.sim_cluster_s", median(sims))
	out.set("runtime.gc_cycles", median(gcs))
	out.set("bench.join_samples", float64(len(untraced)))
	out.note("join samples (s): %.3f", walls)
	out.note("join_s %.4f s (median of %d joins), cpu_s %.4f s, sim_cluster_s %.4f s, alloc %.1f MB, peak RSS %.1f MB, pairs %d",
		median(walls), len(walls), median(cpus), median(sims), median(allocs), rusage, len(warm.Pairs))

	// The oracle runs outside every timed window.
	t0 := time.Now()
	checkJoin(out, warm.Pairs, cols.oracle(in), "warm-up join")
	out.note("oracle %.2f s", time.Since(t0).Seconds())
	if !tr.on {
		return nil
	}

	traced, err := joinLoop(cols, opt, window, tr, root, warm.Pairs, nil, out)
	if err != nil {
		return err
	}
	tw, _, _, _, _ := summarize(traced)
	out.set("bench.trace_overhead", median(tw)/median(walls))
	last := traced[len(traced)-1].res
	stageMetrics(last, cfg.par, out)

	if err := replay(in, cols, last, cfg.par, tr, root, out); err != nil {
		return err
	}
	return baseline(in, cols, cfg, tr, root, warm.Pairs, out)
}

// joinLoop runs timed joins until the window has passed and at least
// minSamples exist, checking every answer against want. Set-up reps run
// between the joins when st is not nil.
func joinLoop(c collections, opt core.Options, window time.Duration, tr *tracer, parent int, want []result.Pair, st *setupTimer, out *report) ([]joinSample, error) {
	var samples []joinSample
	start := time.Now()
	for len(samples) < minSamples || time.Since(start) < window {
		s, err := timedJoin(c, opt, tr, parent)
		out.attempt(err == nil)
		if err != nil {
			return nil, fmt.Errorf("timed join: %w", err)
		}
		checkJoin(out, s.res.Pairs, want, fmt.Sprintf("timed join %d", len(samples)))
		samples = append(samples, s)
		if st != nil {
			st.catchUp(false)
		}
	}
	if st != nil {
		st.catchUp(true)
	}
	return samples, nil
}

// setupShare: on the batch workloads set-up is repeated for one part in
// setupShare of the measured time.
const setupShare = 5

// setupTimer repeats set-up between the timed joins, so that its samples
// spread over the same stretch of time as the joins' and a slow spell of the
// host weighs on both alike. The caller runs set-up once, untimed, before the
// joins, and keeps that result; the reps only time it again.
type setupTimer struct {
	start time.Time
	spent time.Duration
	reps  int
	rep   func() // one timed set-up; it records its own figures
}

func newSetupTimer(rep func()) *setupTimer {
	return &setupTimer{start: time.Now(), rep: rep}
}

// catchUp runs reps until set-up has had one part in setupShare of the
// time since start, and at least minSamples when final is set.
func (s *setupTimer) catchUp(final bool) {
	for s.spent*setupShare < time.Since(s.start) || final && s.reps < minSamples {
		t0 := time.Now()
		s.rep()
		s.spent += time.Since(t0)
		s.reps++
	}
}

func summarize(ss []joinSample) (walls, cpus, allocs, gcs, sims []float64) {
	for _, s := range ss {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		gcs = append(gcs, float64(s.gcs))
		sims = append(sims, s.res.Pipeline.TotalSimulatedTime().Seconds())
	}
	return
}

// stageMetrics reads the per-stage mapreduce.Metrics and counters the
// pipeline returned.
func stageMetrics(res *core.Result, par int, out *report) {
	p := res.Pipeline
	var spills int64
	var total, largest time.Duration
	var largestJob string
	for _, st := range p.Stages() {
		total += st.WallTime
		if st.WallTime > largest {
			largest, largestJob = st.WallTime, st.Job
		}
		var mapT, redT time.Duration
		for _, d := range st.MapTaskTime {
			mapT += d
		}
		for _, d := range st.ReduceTaskTime {
			redT += d
		}
		// Tasks run par at a time, so task time covers about sum/par of
		// the wall time; the rest is grouping, sorting and hand-off.
		shuffle := st.WallTime.Seconds() - (mapT+redT).Seconds()/float64(par)
		pre := "mapreduce." + st.Job
		out.set(pre+".wall_s", st.WallTime.Seconds())
		out.set(pre+".map_s", mapT.Seconds())
		out.set(pre+".reduce_s", redT.Seconds())
		out.set(pre+".shuffle_s", max(shuffle, 0))
		out.set(pre+".shuffle_mb", float64(st.ShuffleBytes)/1e6)
		switch st.Job {
		case "ordering":
			out.set("order.shuffle_mb", float64(st.ShuffleBytes)/1e6)
		case "filtering":
			out.set("partition.map_s", mapT.Seconds())
			out.set("partition.segments", float64(st.MapOutputRecords))
			out.set("fragjoin.reduce_s", redT.Seconds())
			out.set(pre+".load_imbalance", st.LoadImbalance())
		case "verification":
			out.set(pre+".shuffle_records", float64(st.ShuffleRecords))
		}
		spills += st.SpillRuns
	}
	out.set("mapreduce.spill_runs", float64(spills))

	pairs := float64(len(res.Pairs))
	cands := float64(p.Counter(filters.CtrBitmapPassed) + p.Counter(filters.CtrBitmapRejected))
	out.set("fragjoin.candidates", cands)
	out.set("fragjoin.bitmap_reject_frac", ratio(float64(p.Counter(filters.CtrBitmapRejected)), cands))
	out.set("fragjoin.partials", float64(res.FilterOutputRecords))
	out.set("fragjoin.pair_yield", ratio(pairs, float64(res.FilterOutputRecords)))
	vc := float64(p.Counter(filters.CtrVerifyCandidates))
	out.set("core.verify_candidates", vc)
	out.set("core.verify_yield", ratio(pairs, vc))

	out.note("largest stage: %s (%.4f s of %.4f s total stage wall)", largestJob, largest.Seconds(), total.Seconds())
}

// replay recomposes FS-Join from direct calls into each layer — the
// ordering job, the vertical and horizontal splitters, the fragment kernel
// on each fragment's segments, and a MapReduce job summing partial counts —
// so each layer gets a span of its own. Its answer and partial count must
// match the pipeline's.
func replay(in *input, c collections, res *core.Result, par int, tr *tracer, parent int, out *report) error {
	id := tr.begin(parent, "order.ComputeKind")
	t0 := time.Now()
	p := mapreduce.NewPipeline("fsbench-replay", nil)
	p.Parallelism = par
	union := c.r
	if c.s != nil {
		union = &tokens.Collection{Records: append(slices.Clone(c.r.Records), c.s.Records...)}
	}
	o, err := order.ComputeKind(p, union, order.FreqAscending)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay ordering: %w", err)
	}
	id = tr.begin(parent, "order.Apply")
	sides := []*tokens.Collection{c.r, c.s}
	var ordered []*tokens.Collection
	for _, side := range sides {
		if side == nil {
			continue
		}
		oc, err := o.Apply(side)
		if err != nil {
			tr.end(id)
			return fmt.Errorf("replay ordering: %w", err)
		}
		ordered = append(ordered, oc)
	}
	tr.end(id)
	out.set("order.wall_s", time.Since(t0).Seconds())

	id = tr.begin(parent, "partition.Split")
	t0 = time.Now()
	sp := partition.NewSplitter(res.Pivots)
	horiz := partition.NoHorizontal(in.Fn, in.Theta)
	if res.LengthPivots != nil {
		horiz = partition.NewHorizontal(in.Fn, in.Theta, res.LengthPivots)
	}
	frags := map[string][]fragjoin.Seg{}
	segments := 0
	for origin, oc := range ordered {
		for _, rec := range oc.Records {
			segs := sp.Split(rec)
			for _, asg := range horiz.Assign(rec.Len()) {
				for _, seg := range segs {
					key := mapreduce.PairKey(uint32(asg.Partition), uint32(seg.Fragment))
					frags[key] = append(frags[key], fragjoin.Seg{
						RID: rec.RID, Origin: uint8(origin), Role: asg.Role,
						StrLen: int32(seg.StrLen), Head: int32(seg.Head), Tail: int32(seg.Tail),
						Tokens: seg.Tokens,
					})
					segments++
				}
			}
		}
	}
	tr.end(id)
	out.set("partition.split_s", time.Since(t0).Seconds())
	if float64(segments) != out.get("partition.segments") {
		out.wrong("replay split %d segments, the filtering job mapped %v", segments, out.get("partition.segments"))
	}

	params := fragjoin.Params{
		Fn: in.Fn, Theta: in.Theta, Filters: filters.All | filters.Prefix,
		Method: fragjoin.Prefix, RS: c.s != nil, Bitmap: filters.BitmapConfig{}.ResolveEnv(),
	}
	keys := make([]string, 0, len(frags))
	for k := range frags {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var partials []mapreduce.KV
	var kernel time.Duration
	for _, k := range keys {
		id := tr.begin(parent, "fragjoin.Join")
		t0 := time.Now()
		fragjoin.Join(&mapreduce.Context{}, frags[k], params, func(a, b *fragjoin.Seg, common int) {
			partials = append(partials, mapreduce.KV{
				Key:   mapreduce.PairKey(uint32(a.RID), uint32(b.RID)),
				Value: partialCount{c: int32(common), la: a.StrLen, lb: b.StrLen},
			})
		})
		kernel += time.Since(t0)
		tr.end(id)
	}
	out.set("fragjoin.kernel_s", kernel.Seconds())
	if int64(len(partials)) != res.FilterOutputRecords {
		out.wrong("replay kernel emitted %d partials, the filtering job %d", len(partials), res.FilterOutputRecords)
	}

	id = tr.begin(parent, "mapreduce.Run")
	agg, err := mapreduce.Run(mapreduce.Config{Name: "fsbench-verify", Parallelism: par}, partials,
		mapreduce.IdentityMapper, verifier{fn: in.Fn, theta: in.Theta})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay verification: %w", err)
	}
	pairs := make([]result.Pair, 0, len(agg.Output))
	for _, kv := range agg.Output {
		a, b := mapreduce.DecodePairKey(kv.Key)
		pc := kv.Value.(partialCount)
		pairs = append(pairs, result.Pair{A: int32(a), B: int32(b), Common: int(pc.c), Sim: in.Fn.Sim(int(pc.c), int(pc.la), int(pc.lb))})
	}
	result.Sort(pairs)
	if !pairsEqual(pairs, res.Pairs) {
		out.wrong("replay found %d pairs, the pipeline %d", len(pairs), len(res.Pairs))
	}
	return nil
}

// partialCount is one fragment's common-token count for a pair, with the
// two record lengths.
type partialCount struct{ c, la, lb int32 }

// verifier sums a pair's partial counts and keeps it when the total meets
// the threshold.
type verifier struct {
	fn    similarity.Func
	theta float64
}

func (v verifier) Reduce(ctx *mapreduce.Context, key string, values []any) {
	sum := values[0].(partialCount)
	for _, x := range values[1:] {
		sum.c += x.(partialCount).c
	}
	if v.fn.AtLeast(int(sum.c), int(sum.la), int(sum.lb), v.theta) {
		ctx.Emit(key, sum)
	}
}

// baseline times RIDPairsPPJoin on the same collections, an ungated
// reference for the FS-Join-vs-RIDPairs wall-clock gap.
func baseline(in *input, c collections, cfg runConfig, tr *tracer, parent int, want []result.Pair, out *report) error {
	var walls []float64
	for i := 0; i < baselineReps; i++ {
		runtime.GC()
		id := tr.begin(parent, "baseline.RIDPairs")
		t0 := time.Now()
		res, err := c.ridpairs(in, cfg.par)
		walls = append(walls, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ridpairs: %w", err)
		}
		if !pairsEqual(res.Pairs, want) {
			out.wrong("RIDPairsPPJoin found %d pairs, FS-Join %d", len(res.Pairs), len(want))
		}
	}
	out.set("baseline.ridpairs_join_s", median(walls))
	return nil
}

// checkJoin counts a join whose answer differs from want as failed.
func checkJoin(out *report, got, want []result.Pair, what string) {
	if !pairsEqual(got, want) {
		out.failOp("%s found %d pairs, want %d", what, len(got), len(want))
	}
}

func pairsEqual(a, b []result.Pair) bool {
	return slices.Equal(a, b)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
