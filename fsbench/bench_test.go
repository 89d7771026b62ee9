package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fsjoin/internal/probeindex"
	"fsjoin/internal/tokens"
)

// small keeps every workload's shape at a size the tests can afford.
func small() sizes {
	return sizes{Corpus: 500, Stopword: 200, Queries: 10}
}

func mustGenerate(t *testing.T, name string, seed int64) *input {
	t.Helper()
	in, err := generate(name, seed, small())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustGenerate(t, name, 7), mustGenerate(t, name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two inputs from seed 7 differ", name)
		}
		if c := mustGenerate(t, name, 8); reflect.DeepEqual(a.R, c.R) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
		words := make([][]string, len(a.R))
		for i, r := range a.R {
			words[i] = tokens.WordTokenizer{}.Tokenize(r.Text)
		}
		s1 := schedule(rand.New(rand.NewSource(7)), words, 1000, time.Second)
		s2 := schedule(rand.New(rand.NewSource(7)), words, 1000, time.Second)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: two op streams from seed 7 differ", name)
		}
	}
	if _, err := generate("no-such-workload", 1, small()); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestOracleCatchesDroppedPair drops one pair from a join answer and one
// match from a probe answer; each must count as a failed operation.
func TestOracleCatchesDroppedPair(t *testing.T) {
	in := mustGenerate(t, wZipf, 4)
	c := encode(in)
	res, err := c.fsjoin(coreOptions(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := c.oracle(in)
	if !pairsEqual(res.Pairs, want) || len(want) == 0 {
		t.Fatalf("FS-Join %d pairs, oracle %d", len(res.Pairs), len(want))
	}
	out := newReport()
	out.attempt(true)
	checkJoin(out, res.Pairs[1:], want, "join")
	if out.failed != 1 || out.errorRate() == 0 {
		t.Errorf("a dropped pair gave failed=%d error_rate=%v", out.failed, out.errorRate())
	}

	in = mustGenerate(t, wProbe, 4)
	c = encode(in)
	ix, err := probeindex.Build(c.r, c.dict.Token, probeindex.Options{Fn: in.Fn, Theta: in.Theta})
	if err != nil {
		t.Fatal(err)
	}
	words := make([][]string, len(in.R))
	for i, r := range in.R {
		words[i] = tokens.WordTokenizer{}.Tokenize(r.Text)
	}
	// Probe every record with its own words: each matches at least itself.
	var ops []op
	for _, w := range words {
		ops = append(ops, op{kind: opProbe, set: w})
	}
	cl := &client{ix: ix, tr: newTracer(false, "")}
	outs := cl.serve(ops, 0)
	good := newReport()
	newModel(in).check(ops, outs, 1, good)
	if good.failed != 0 {
		t.Fatalf("untouched probe answers: %d failed: %v", good.failed, good.mismatches)
	}
	outs[3].matches = outs[3].matches[1:]
	bad := newReport()
	newModel(in).check(ops, outs, 1, bad)
	if bad.failed != 1 || bad.errorRate() == 0 {
		t.Errorf("a dropped match gave failed=%d error_rate=%v", bad.failed, bad.errorRate())
	}
}

// TestReplaysRepeat takes closed-loop samples of probe-mixed: every replay
// must give the first one's answers, which the model checks, and a replay
// whose answer changes must count as failed.
func TestReplaysRepeat(t *testing.T) {
	in := mustGenerate(t, wProbe, 9)
	words := make([][]string, len(in.R))
	for i, r := range in.R {
		words[i] = tokens.WordTokenizer{}.Tokenize(r.Text)
	}
	stream := schedule(rand.New(rand.NewSource(9)), words, fixedRate, streamRequests*time.Second/fixedRate)
	r := &replays{in: in, dir: t.TempDir(), stream: stream}
	out := newReport()
	var setup [4][]float64
	walls, _, allocs, err := r.loop(time.Millisecond, newTracer(false, ""), 0, &setup, out)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up replay, then minSamples recorded ones.
	if out.failed != 0 || out.attempted != (minSamples+1)*len(stream) {
		t.Fatalf("%d of %d ops failed: %v", out.failed, out.attempted, out.mismatches)
	}
	if len(walls) != minSamples || len(setup[0]) != minSamples || allocs[0] == 0 {
		t.Errorf("%d replays, %d set-ups, %v MB allocated", len(walls), len(setup[0]), allocs[0])
	}
	for i, o := range r.first {
		if o.kind == opProbe && len(o.matches) > 0 {
			r.first[i].matches = o.matches[1:]
			break
		}
	}
	bad := newReport()
	if _, _, _, err := r.loop(time.Millisecond, newTracer(false, ""), 0, nil, bad); err != nil {
		t.Fatal(err)
	}
	if bad.failed != minSamples+1 {
		t.Errorf("a changed answer gave %d failed ops in %d replays", bad.failed, minSamples+1)
	}
}

// countMetrics are the exact counts the benchmark reports.
var countMetrics = []string{
	"partition.segments", "fragjoin.candidates", "fragjoin.partials",
	"mapreduce.verification.shuffle_records", "core.verify_candidates",
}

func TestCountsIndependentOfParallelism(t *testing.T) {
	for _, name := range []string{wZipf, wStopword, wRS} {
		in := mustGenerate(t, name, 5)
		c := encode(in)
		var counts [2]map[string]float64
		for i, par := range []int{1, runtime.NumCPU()} {
			res, err := c.fsjoin(coreOptions(in, par))
			if err != nil {
				t.Fatal(err)
			}
			out := newReport()
			stageMetrics(res, par, out)
			counts[i] = map[string]float64{}
			for _, m := range countMetrics {
				counts[i][m] = out.get(m)
			}
		}
		if !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: counts at parallelism 1 %v, at %d %v", name, counts[0], runtime.NumCPU(), counts[1])
		}
		if counts[0]["fragjoin.partials"] == 0 {
			t.Errorf("%s: no partials", name)
		}
	}

	in := mustGenerate(t, wProbe, 5)
	words := make([][]string, len(in.R))
	for i, r := range in.R {
		words[i] = tokens.WordTokenizer{}.Tokenize(r.Text)
	}
	var stats [2]probeindex.Stats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		c := encode(in)
		ix, err := probeindex.Build(c.r, c.dict.Token, probeindex.Options{Fn: in.Fn, Theta: in.Theta})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Persist(t.TempDir(), durable); err != nil {
			t.Fatal(err)
		}
		cl := &client{ix: ix, tr: newTracer(false, "")}
		for _, r := range in.R {
			cl.live = append(cl.live, r.RID)
		}
		cl.serve(schedule(rand.New(rand.NewSource(5)), words, 4000, 700*time.Millisecond), 0)
		stats[i] = ix.Stats()
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range stats {
		if s.Compactions == 0 {
			t.Error("the stream ran no compaction; raise its length")
		}
	}
	if stats[0].Candidates != stats[1].Candidates || stats[0].Hits != stats[1].Hits {
		t.Errorf("probe candidates/hits %d/%d at GOMAXPROCS 1, %d/%d at %d",
			stats[0].Candidates, stats[0].Hits, stats[1].Candidates, stats[1].Hits, runtime.NumCPU())
	}
}

// TestReplayMatchesPipeline runs the traced layer-by-layer replay: it must
// find the pipeline's pairs and partial count, and record a span for each
// batch layer.
func TestReplayMatchesPipeline(t *testing.T) {
	for _, name := range []string{wZipf, wRS} {
		in := mustGenerate(t, name, 6)
		c := encode(in)
		res, err := c.fsjoin(coreOptions(in, 2))
		if err != nil {
			t.Fatal(err)
		}
		out := newReport()
		stageMetrics(res, 2, out)
		tr := newTracer(true, "test")
		root := tr.begin(0, "bench.run")
		if err := replay(in, c, res, 2, tr, root, out); err != nil {
			t.Fatal(err)
		}
		tr.end(root)
		if len(out.mismatches) != 0 {
			t.Errorf("%s: %v", name, out.mismatches)
		}
		layers := map[string]bool{}
		for _, s := range tr.spans {
			layers[s.layer()] = true
		}
		for _, l := range []string{"order", "partition", "fragjoin", "mapreduce"} {
			if !layers[l] {
				t.Errorf("%s: no %s span", name, l)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.Join", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "mapreduce.a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "mapreduce.b", Start: 3, End: 6},
		{ID: 4, Parent: 3, Name: "mapreduce.c", Start: 4, End: 5},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Layer] = r
	}
	if c := got["core"]; c.Self != 5 || c.Total != 10 {
		t.Errorf("core: %+v, want self 5 total 10", c)
	}
	if m := got["mapreduce"]; m.Self != 6 || m.Total != 6 || m.Spans != 3 {
		t.Errorf("mapreduce: %+v, want self 6 total 6 spans 3", m)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var code []metric
		for _, d := range c.code {
			code = append(code, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.json, code) {
			t.Errorf("BENCHMARK.json metrics %v, program %v", c.json, code)
		}
	}
}
