package mapreduce

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// distFixture runs one wordcount distributed across nWorkers in-process
// WorkerClients plus the driver, all over a shared FSTransport, and
// returns the driver's Result. beforeDial, when non-nil, runs in each
// worker's goroutine before it dials, so a test can hold a worker back.
// mutateWorker lets a test sabotage one worker's run (to simulate death) —
// it receives the worker id and the dialed client before the run starts.
func distFixture(t *testing.T, nWorkers int, input []KV, beforeDial func(id int), mutateWorker func(id int, w *WorkerClient)) (*Result, *Supervisor) {
	t.Helper()
	dir := t.TempDir()
	sup, err := StartSupervisor(SupervisorConfig{
		Dir:              dir,
		LeaseDuration:    300 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		ReassignBackoff:  2 * time.Millisecond,
		Workers:          nWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	// Each participant opens its own transport over the shared directory,
	// as separate processes would: stage sequence numbers are per handle,
	// and keep=true stops an early finisher from deleting frames that
	// slower participants still read during Result assembly.
	runOne := func(id int, w *WorkerClient) (*Result, error) {
		cfg := Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4}
		cfg.Runtime = Runtime{Transport: NewFSTransport(dir, true), Executor: w}
		return Run(cfg, input, wcMapper{}, wcReducer{})
	}
	var wg sync.WaitGroup
	for id := 0; id < nWorkers; id++ {
		wg.Add(1)
		// Stagger the starts so grants land in worker order — the death
		// tests rely on worker 0 holding the first lease.
		go func(id int) {
			defer wg.Done()
			if beforeDial != nil {
				beforeDial(id)
			}
			w, err := DialWorker(sup.Addr(), id, "")
			if err != nil {
				t.Error(err)
				return
			}
			if mutateWorker != nil {
				mutateWorker(id, w)
			}
			time.Sleep(time.Duration(id) * 10 * time.Millisecond)
			if _, err := runOne(id, w); err == nil {
				w.Close() // graceful exit only on success
			}
		}(id)
	}
	driver, err := DialWorker(sup.Addr(), driverWorkerID, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(driverWorkerID, driver)
	if err != nil {
		t.Fatal(err)
	}
	driver.Close()
	wg.Wait()
	return res, sup
}

// TestDistributedMatchesLocal proves the SPMD path end to end in-process:
// the driver's assembled Result matches a plain local run's output and
// deterministic counters exactly.
func TestDistributedMatchesLocal(t *testing.T) {
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d", i%9, i%4))
	}
	input := wcInput(lines...)
	local, err := Run(Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	dist, sup := distFixture(t, 3, input, nil, nil)
	if !reflect.DeepEqual(local.Output, dist.Output) {
		t.Fatalf("distributed output differs from local: %d vs %d records", len(local.Output), len(dist.Output))
	}
	if lc, dc := local.Counters.Snapshot(), dist.Counters.Snapshot(); !reflect.DeepEqual(lc, dc) {
		t.Fatalf("counters differ:\nlocal %v\ndist  %v", lc, dc)
	}
	if got := sup.Counters(); got.Heartbeats == 0 {
		t.Fatal("supervisor saw no heartbeats")
	}
	if dist.Metrics.ShuffleRecords != local.Metrics.ShuffleRecords ||
		dist.Metrics.ReduceInputGroups != local.Metrics.ReduceInputGroups {
		t.Fatalf("shuffle metrics differ: dist %+v local %+v",
			dist.Metrics.ShuffleRecords, local.Metrics.ShuffleRecords)
	}
}

// TestDistributedSurvivesWorkerDeath kills one worker's control
// connection mid-run (EOF without bye — exactly what SIGKILL produces)
// and proves the survivors absorb its leases: output stays byte-identical
// and the supervisor counts the death and the reassignments.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d", i%9, i%4))
	}
	input := wcInput(lines...)
	local, err := Run(Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 "dies" at its first map boundary: the boundary hook drops
	// both connections without a bye, so its granted lease is mid-flight.
	dist, sup := distFixture(t, 2, input, nil, func(id int, w *WorkerClient) {
		if id != 0 {
			return
		}
		w.kill = killSpec{kind: "map", n: 1}
		// Replace the SIGKILL with a connection drop so the test stays
		// in-process: from the supervisor's view the two are identical.
		w.die = func() {
			w.conn.Close()
			w.beat.Close()
		}
	})
	if !reflect.DeepEqual(local.Output, dist.Output) {
		t.Fatal("output differs after worker death")
	}
	got := sup.Counters()
	if got.WorkerDeaths == 0 {
		t.Fatal("supervisor counted no worker deaths")
	}
	if got.TasksReassigned == 0 {
		t.Fatal("supervisor counted no task reassignments")
	}
}

// TestSupervisorGraceAwaitsAllWorkers pins the startup race: worker 0
// registers and dies at its first map boundary before worker 1 has dialled,
// so for a while no worker is alive. The supervisor expects two workers, so
// its startup grace holds until worker 1 registers — 100 ms after the
// death, some 50 driver polls later — and worker 1 finishes the run.
func TestSupervisorGraceAwaitsAllWorkers(t *testing.T) {
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d", i%9, i%4))
	}
	input := wcInput(lines...)
	local, err := Run(Config{Name: "wc-dist", Cluster: tinyCluster(), MapTasks: 4}, input, wcMapper{}, wcReducer{})
	if err != nil {
		t.Fatal(err)
	}
	died := make(chan struct{})
	dist, sup := distFixture(t, 2, input, func(id int) {
		if id == 1 {
			<-died
			time.Sleep(100 * time.Millisecond)
		}
	}, func(id int, w *WorkerClient) {
		if id != 0 {
			return
		}
		w.kill = killSpec{kind: "map", n: 1}
		w.die = func() {
			w.conn.Close()
			w.beat.Close()
			close(died)
		}
	})
	if !reflect.DeepEqual(local.Output, dist.Output) {
		t.Fatal("output differs after the only registered worker died")
	}
	if got := sup.Counters(); got.WorkerDeaths != 1 || got.TasksReassigned == 0 {
		t.Fatalf("want one death and a reassignment, got %+v", got)
	}
}

// TestSupervisorRejectsDivergentPhase proves the SPMD announce contract:
// a participant announcing a different (job, phase, n) for the same
// sequence number aborts the run instead of corrupting it.
func TestSupervisorRejectsDivergentPhase(t *testing.T) {
	dir := t.TempDir()
	sup, err := StartSupervisor(SupervisorConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	a, err := DialWorker(sup.Addr(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialWorker(sup.Addr(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.BeginPhase("job-a", PhaseMap, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BeginPhase("job-a", PhaseMap, 7); err == nil {
		t.Fatal("divergent task count accepted")
	}
}

// TestParseKillSpec pins the harness env contract.
func TestParseKillSpec(t *testing.T) {
	if k, err := parseKillSpec("handoff:2"); err != nil || k.kind != "handoff" || k.n != 2 {
		t.Fatalf("got %+v, %v", k, err)
	}
	if k, err := parseKillSpec(""); err != nil || k.kind != "" {
		t.Fatalf("empty spec: got %+v, %v", k, err)
	}
	for _, bad := range []string{"handoff", "handoff:", "handoff:0", ":3", "nonsense:1"} {
		if _, err := parseKillSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
