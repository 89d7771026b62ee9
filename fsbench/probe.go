package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"fsjoin/internal/bruteforce"
	"fsjoin/internal/probeindex"
	"fsjoin/internal/result"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

type opKind uint8

const (
	opProbe opKind = iota
	opInsert
	opDelete
	opMaintain
)

var opNames = [...]string{"Probe", "Insert", "Delete", "Maintain"}

// op is one request of the stream. Open loop, it is due at an offset from
// the start of its phase.
type op struct {
	kind opKind
	due  time.Duration
	set  []string // probe or insert tokens
	pick float64  // delete: position in the live-record list, as a fraction
}

const (
	// fixedRate is the offered rate of the phase the latencies come from,
	// well below what one client saturates at. The closed loop draws its
	// stream at this rate too, so Maintain falls every 100 requests there.
	fixedRate = 1000
	// maintainEvery is the maintenance timer: Maintain flushes the WAL's
	// group commit and runs the auto-compaction policy.
	maintainEvery = 100 * time.Millisecond
	// latencyLimit is the p99 limit of the sustained-rate test.
	latencyLimit = time.Millisecond
	// sampledCheckEvery: on the ladder and in the first closed-loop
	// replay, one probe in this many is checked against brute force (every
	// fixed-rate probe is). A check scans every live record and costs about
	// 3 ms on a 2-CPU x86-64 VM, some 50 times a probe.
	sampledCheckEvery = 10
	// streamRequests is the length of the closed-loop stream: at 12% inserts
	// and deletes it fills the 256-record overlay, and compacts, twice.
	streamRequests = 5000
)

var (
	// ladder is the fixed set of offered rates sustained_ops_per_s is read
	// from.
	ladder = []int{1000, 2000, 4000, 8000}

	durable = probeindex.DurableOptions{
		Sync:        probeindex.SyncPolicy{Mode: probeindex.SyncInterval, Interval: 100 * time.Millisecond},
		AutoCompact: probeindex.AutoCompactPolicy{MaxLogRecords: 256},
	}
)

// schedule builds one phase of the stream at a fixed rate: 88% probes, 10%
// inserts, 2% deletes, plus a maintenance pass every maintainEvery of due
// time. Half the probes are near-duplicates of corpus records, so some hit;
// the other half are corpus words drawn at random.
func schedule(rng *rand.Rand, corpus [][]string, rate int, d time.Duration) []op {
	n := int(float64(rate) * d.Seconds())
	gap := time.Second / time.Duration(rate)
	var ops []op
	next := maintainEvery
	for i := 0; i < n; i++ {
		due := time.Duration(i) * gap
		for due >= next {
			ops = append(ops, op{kind: opMaintain, due: next})
			next += maintainEvery
		}
		base := corpus[rng.Intn(len(corpus))]
		switch x := rng.Float64(); {
		case x < 0.88:
			noise := 0.05
			if rng.Intn(2) == 0 {
				noise = 1
			}
			ops = append(ops, op{kind: opProbe, due: due, set: mutateWords(rng, base, corpus, noise)})
		case x < 0.98:
			ops = append(ops, op{kind: opInsert, due: due, set: mutateWords(rng, base, corpus, 0.1)})
		default:
			ops = append(ops, op{kind: opDelete, due: due, pick: rng.Float64()})
		}
	}
	return ops
}

// outcome is what one executed op returned and how long it took.
type outcome struct {
	kind    opKind
	latency time.Duration // open loop: from due time to completion
	lag     time.Duration // open loop: from due time to start
	matches []probeindex.Match
	rid     int32 // insert: assigned rid; delete: target rid
	err     error
}

// client executes a stream in order on one goroutine and keeps the
// live-record list that delete targets are drawn from. Maintenance runs
// inline, so the stream, and every count it produces, is the same on every
// run of a seed.
type client struct {
	ix      *probeindex.Index
	live    []int32
	tr      *tracer
	maintMS []float64
	logMax  int64
}

// do executes one op.
func (c *client) do(o op, parent int) outcome {
	id := c.tr.begin(parent, "probeindex."+opNames[o.kind])
	defer c.tr.end(id)
	res := outcome{kind: o.kind}
	switch o.kind {
	case opProbe:
		res.matches = c.ix.Probe(o.set)
	case opInsert:
		res.rid, res.err = c.ix.Insert(o.set)
		if res.err == nil {
			c.live = append(c.live, res.rid)
		}
	case opDelete:
		k := int(o.pick * float64(len(c.live)))
		res.rid = c.live[k]
		res.err = c.ix.Delete(res.rid)
		if res.err == nil {
			c.live = slices.Delete(c.live, k, k+1)
		}
	case opMaintain:
		c.logMax = max(c.logMax, c.ix.Stats().LogSize)
		t0 := time.Now()
		res.err = c.ix.Maintain()
		c.maintMS = append(c.maintMS, float64(time.Since(t0))/1e6)
	}
	return res
}

// serve runs one phase open loop: each op starts at its due time or, when
// the client is behind, as soon as the previous op completes; latency counts
// from the due time, so a stall is charged to every op queued behind it.
func (c *client) serve(ops []op, parent int) []outcome {
	out := make([]outcome, len(ops))
	start := time.Now()
	for i, o := range ops {
		due := start.Add(o.due)
		waitUntil(due)
		begin := time.Now()
		out[i] = c.do(o, parent)
		out[i].lag = begin.Sub(due)
		out[i].latency = time.Since(due)
	}
	return out
}

// waitUntil sleeps until shortly before t and spins the rest: the runtime's
// sleeps overshoot by up to a millisecond, which would otherwise show up as
// latency of the program under test.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// latencies returns the latencies of one op kind, in microseconds.
func latencies(outs []outcome, kind opKind) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.kind == kind {
			xs = append(xs, float64(o.latency)/1e3)
		}
	}
	return xs
}

// rungOK is the sustained-rate test: probe and insert p99 under the limit,
// and a generator less than the limit behind schedule, on average, over the
// rung's last quarter.
func rungOK(outs []outcome) bool {
	limit := float64(latencyLimit) / 1e3
	if quantile(latencies(outs, opProbe), 0.99) >= limit || quantile(latencies(outs, opInsert), 0.99) >= limit {
		return false
	}
	tail := outs[len(outs)*3/4:]
	var lag time.Duration
	for _, o := range tail {
		lag += o.lag
	}
	return lag/time.Duration(len(tail)) < latencyLimit
}

// runProbe measures probe-mixed: the seed's stream replayed closed loop,
// each time on a freshly built index, for the end-to-end figures. With
// tracing on, an open-loop fixed-rate phase and the rate ladder run first,
// on an index of their own, for the latencies and the per-layer counts.
// Every answer is checked against a brute-force model.
func runProbe(in *input, cfg runConfig, tr *tracer, out *report) error {
	root := tr.begin(0, "bench.run")
	defer tr.end(root)

	words := make([][]string, len(in.R))
	for i, raw := range in.R {
		words[i] = strings.Fields(raw.Text)
	}
	dir := filepath.Join(cfg.workdir, "index")
	// The index files are scratch; the spans are what a run keeps.
	defer os.RemoveAll(dir)
	window := cfg.window
	if tr.on {
		ix, err := buildIndex(in, dir, tr, root, nil)
		if err != nil {
			return err
		}
		c := &client{ix: ix, tr: tr, live: corpusRIDs(in)}
		openLoop(c, newModel(in), rand.New(rand.NewSource(cfg.seed^0x9e3779b9)), words, cfg.window, root, out)
		if err := ix.Close(); err != nil {
			return fmt.Errorf("close index: %w", err)
		}
		// The replays get a quarter untraced and a quarter traced, for
		// trace_overhead.
		window = cfg.window / 4
	}

	stream := schedule(rand.New(rand.NewSource(cfg.seed^0x5eed5)), words, fixedRate, streamRequests*time.Second/fixedRate)
	r := &replays{in: in, dir: dir, stream: stream}
	var setup [4][]float64 // set-up, encode, build, persist
	walls, cpus, allocs, err := r.loop(window, newTracer(false, ""), 0, &setup, out)
	if err != nil {
		return err
	}
	out.set("setup_s", median(setup[0]))
	out.set("tokens.encode_s", median(setup[1]))
	out.set("probeindex.build_s", median(setup[2]))
	out.set("probeindex.persist_s", median(setup[3]))
	out.set("join_s", median(walls))
	out.set("runtime.cpu_s", median(cpus))
	out.set("alloc_mb", median(allocs))
	out.set("peak_rss_mb", peakRSSMB())
	out.set("bench.join_samples", float64(len(walls)))
	out.note("stream of %d ops replayed closed loop, %d compactions: %.4f s, %.2f MB (median of %d); set-up %.4f s (median of %d)",
		len(stream), r.compactions, median(walls), median(allocs), len(walls), median(setup[0]), len(setup[0]))
	if !tr.on {
		return nil
	}
	tw, _, _, err := r.loop(window, tr, root, nil, out)
	if err != nil {
		return err
	}
	out.set("bench.trace_overhead", median(tw)/median(walls))
	return nil
}

func corpusRIDs(in *input) []int32 {
	rids := make([]int32, len(in.R))
	for i, raw := range in.R {
		rids[i] = raw.RID
	}
	return rids
}

// replays runs probe-mixed's closed-loop samples: each builds a fresh index
// (the set-up) and replays the whole stream on it back to back, Maintain
// inline, so every sample does the same work from the same state.
type replays struct {
	in     *input
	dir    string
	stream []op
	first  []outcome // the first replay's answers, checked against the model
	// compactions is how often one replay compacted the index.
	compactions int64
}

// loop takes samples until the window has passed and at least minSamples
// exist, and returns each replay's wall seconds, CPU seconds and allocated
// megabytes. When times is not nil the set-up figures are appended to it.
// The first sample is a warm-up: it is checked but not recorded.
func (r *replays) loop(window time.Duration, tr *tracer, parent int, times *[4][]float64, out *report) (walls, cpus, allocs []float64, err error) {
	for warm, start := true, time.Now(); warm || len(walls) < minSamples || time.Since(start) < window; warm = false {
		t := times
		if warm {
			t = nil
		}
		ix, err := buildIndex(r.in, r.dir, tr, parent, t)
		if err != nil {
			return nil, nil, nil, err
		}
		c := &client{ix: ix, tr: tr, live: corpusRIDs(r.in)}
		outs := make([]outcome, len(r.stream))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := tr.begin(parent, "loadgen.ClosedLoop")
		c0 := cpuTime()
		t0 := time.Now()
		for i, o := range r.stream {
			outs[i] = c.do(o, id)
		}
		wall, cpu := time.Since(t0), cpuTime()-c0
		tr.end(id)
		runtime.ReadMemStats(&m1)
		r.compactions = ix.Stats().AutoCompactions
		if err := ix.Close(); err != nil {
			return nil, nil, nil, fmt.Errorf("close index: %w", err)
		}
		r.check(outs, out)
		if !warm {
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		}
	}
	return walls, cpus, allocs, nil
}

// check judges one replay. The first is checked against the model; every
// later one starts from the same state, so it must return exactly the
// first one's answers.
func (r *replays) check(outs []outcome, out *report) {
	if r.first == nil {
		newModel(r.in).check(r.stream, outs, sampledCheckEvery, out)
		r.first = outs
		return
	}
	for i, o := range outs {
		out.attempt(o.err == nil)
		f := r.first[i]
		if o.err == nil && (o.rid != f.rid || !slices.Equal(o.matches, f.matches)) {
			out.failOp("replayed op %d (%s) answered differently from the first replay", i, opNames[o.kind])
		}
	}
}

// openLoop runs the fixed-rate phase for half of d and the rate ladder for
// two fifths of it, and reports their per-layer metrics. Every count it
// reports depends on the seed only.
func openLoop(c *client, m *model, rng *rand.Rand, words [][]string, d time.Duration, root int, out *report) {
	tr := c.tr
	fixedOps := schedule(rng, words, fixedRate, d/2)
	s0 := c.ix.Stats()
	id := tr.begin(root, "loadgen.FixedRate")
	fixed := c.serve(fixedOps, id)
	tr.end(id)
	s1 := c.ix.Stats()
	m.check(fixedOps, fixed, 1, out)

	var lagMax time.Duration
	for _, o := range fixed {
		lagMax = max(lagMax, o.lag)
	}
	probes, inserts := latencies(fixed, opProbe), latencies(fixed, opInsert)
	out.set("probeindex.probe_p50_us", quantile(probes, 0.5))
	out.set("probeindex.probe_p99_us", quantile(probes, 0.99))
	out.set("probeindex.insert_p50_us", quantile(inserts, 0.5))
	out.set("probeindex.insert_p99_us", quantile(inserts, 0.99))
	out.set("loadgen.lag_max_ms", float64(lagMax)/1e6)
	cands, hits := float64(s1.Candidates-s0.Candidates), float64(s1.Hits-s0.Hits)
	out.set("probeindex.candidates_per_probe", ratio(cands, float64(s1.Probes-s0.Probes)))
	out.set("probeindex.hit_yield", ratio(hits, cands))
	out.note("fixed rate %d ops/s for %v: %d probes p50 %.1f us p99 %.1f us, %d inserts p50 %.1f us p99 %.1f us, generator lag max %.3f ms",
		fixedRate, d/2, len(probes), quantile(probes, 0.5), quantile(probes, 0.99),
		len(inserts), quantile(inserts, 0.5), quantile(inserts, 0.99), float64(lagMax)/1e6)
	out.note("probe candidates %d, hits %d (exact counts)", s1.Candidates-s0.Candidates, s1.Hits-s0.Hits)

	ladderRun(c, rng, words, d*2/5, m, root, out)
	s2 := c.ix.Stats()
	out.set("probeindex.compactions", float64(s2.AutoCompactions-s0.AutoCompactions))
	out.set("probeindex.wal_appends", float64(s2.WALAppends-s0.WALAppends))
	out.set("probeindex.wal_synced_mb", float64(s2.WALSyncedBytes-s0.WALSyncedBytes)/1e6)
	out.set("probeindex.log_size_max", float64(c.logMax))
	total := 0.0
	for _, ms := range c.maintMS {
		total += ms
	}
	out.set("probeindex.maintain_s", total/1e3)
	out.set("probeindex.maintain_max_ms", slices.Max(c.maintMS))
}

// buildIndex is probe-mixed's set-up: it encodes the corpus, builds the
// index and persists it to dir. When times is not nil it appends the
// seconds of the whole, of encoding, of building and of persisting.
func buildIndex(in *input, dir string, tr *tracer, root int, times *[4][]float64) (*probeindex.Index, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	id := tr.begin(root, "tokens.Encode")
	cols := encode(in)
	tr.end(id)
	t1 := time.Now()
	id = tr.begin(root, "probeindex.Build")
	ix, err := probeindex.Build(cols.r, cols.dict.Token, probeindex.Options{Fn: in.Fn, Theta: in.Theta})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	t2 := time.Now()
	id = tr.begin(root, "probeindex.Persist")
	err = ix.Persist(dir, durable)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("persist index: %w", err)
	}
	t3 := time.Now()
	if times != nil {
		for i, d := range []time.Duration{t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)} {
			times[i] = append(times[i], d.Seconds())
		}
	}
	return ix, nil
}

// ladderRun offers each ladder rate in turn for an equal share of d. Every
// rung runs, so the stream does not depend on timing; sustained_ops_per_s
// is the highest rate of the passing run of rungs from the bottom.
func ladderRun(c *client, rng *rand.Rand, words [][]string, d time.Duration, m *model, root int, out *report) {
	rungOps := make([][]op, len(ladder))
	for i, rate := range ladder {
		rungOps[i] = schedule(rng, words, rate, d/time.Duration(len(ladder)))
	}
	sustained, broken := 0, false
	for i, rate := range ladder {
		id := c.tr.begin(root, "loadgen.Rung")
		outs := c.serve(rungOps[i], id)
		c.tr.end(id)
		m.check(rungOps[i], outs, sampledCheckEvery, out)
		ok := rungOK(outs)
		broken = broken || !ok
		if !broken {
			sustained = rate
		}
		out.note("rung %d ops/s: probe p99 %.1f us, insert p99 %.1f us, ok=%v", rate,
			quantile(latencies(outs, opProbe), 0.99), quantile(latencies(outs, opInsert), 0.99), ok)
	}
	out.set("loadgen.sustained_ops_per_s", float64(sustained))
}

// model is the oracle's view of the index: the live records, encoded with a
// dictionary of its own, checked with internal/bruteforce.
type model struct {
	fn    similarity.Func
	theta float64
	dict  *tokens.Dictionary
	recs  []tokens.Record // live records, in no particular order
	pos   map[int32]int   // rid → index in recs
}

func newModel(in *input) *model {
	m := &model{fn: in.Fn, theta: in.Theta, dict: tokens.NewDictionary(), pos: map[int32]int{}}
	for _, raw := range in.R {
		m.add(raw.RID, tokens.WordTokenizer{}.Tokenize(raw.Text))
	}
	return m
}

func (m *model) record(rid int32, set []string) tokens.Record {
	ids := make([]tokens.ID, len(set))
	for i, t := range set {
		ids[i] = m.dict.Intern(t)
	}
	return tokens.NewRecord(rid, ids)
}

func (m *model) add(rid int32, set []string) {
	m.pos[rid] = len(m.recs)
	m.recs = append(m.recs, m.record(rid, set))
}

func (m *model) remove(rid int32) {
	i, last := m.pos[rid], len(m.recs)-1
	m.recs[i] = m.recs[last]
	m.pos[m.recs[i].RID] = i
	m.recs = m.recs[:last]
	delete(m.pos, rid)
}

// check replays executed ops against the model in order. Every op that
// returned an error counts as failed; every probe whose position is a
// multiple of checkEvery is compared with brute force over all the records
// live at the time, on one worker per core.
func (m *model) check(ops []op, outs []outcome, checkEvery int, rep *report) {
	type job struct {
		i   int
		p   tokens.Record
		s   *tokens.Collection
		got []probeindex.Match
	}
	jobs := make(chan job)
	wrong := make([]bool, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				want := bruteforce.Join(&tokens.Collection{Records: []tokens.Record{j.p}}, j.s, m.fn, m.theta)
				wrong[j.i] = !matchesEqual(j.got, want)
			}
		}()
	}
	probes := 0
	for i, o := range ops {
		res := outs[i]
		rep.attempt(res.err == nil)
		if res.err != nil {
			continue
		}
		switch o.kind {
		case opProbe:
			if probes%checkEvery == 0 {
				live := &tokens.Collection{Records: slices.Clone(m.recs)}
				jobs <- job{i: i, p: m.record(-1, o.set), s: live, got: res.matches}
			}
			probes++
		case opInsert:
			if _, dup := m.pos[res.rid]; dup {
				rep.failOp("insert %d was given the live rid %d", i, res.rid)
				continue
			}
			m.add(res.rid, o.set)
		case opDelete:
			if _, live := m.pos[res.rid]; !live {
				rep.failOp("delete %d removed rid %d, which is not live", i, res.rid)
				continue
			}
			m.remove(res.rid)
		}
	}
	close(jobs)
	wg.Wait()
	for i, w := range wrong {
		if w {
			rep.failOp("probe %d disagrees with brute force", i)
		}
	}
}

func matchesEqual(got []probeindex.Match, want []result.Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.RID != w.B || int(g.Common) != w.Common || g.Sim != w.Sim {
			return false
		}
	}
	return true
}
