package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmittersDuringShutdown races a crowd of submitters
// against graceful shutdown (run under -race). The contract under test:
// every job acknowledged with 202 reaches exactly one terminal state
// and is retrievable afterwards — nothing dropped, nothing duplicated —
// while submissions after the drain begins get 503 and a full queue
// gets 429.
func TestConcurrentSubmittersDuringShutdown(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8, JobTimeout: 30 * time.Second})

	const submitters = 8
	var (
		mu       sync.Mutex
		accepted []string
		saw503   bool
	)
	var wg sync.WaitGroup
	wg.Add(submitters)
	for g := 0; g < submitters; g++ {
		go func() {
			defer wg.Done()
			for {
				resp, body := postJSON(t, ts.URL+"/v1/jobs", tprocJob())
				switch resp.StatusCode {
				case http.StatusAccepted:
					var sr SubmitResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						t.Errorf("202 body: %v: %s", err, body)
						return
					}
					mu.Lock()
					accepted = append(accepted, sr.ID)
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Backpressure; retry like a polite client.
				case http.StatusServiceUnavailable:
					mu.Lock()
					saw503 = true
					mu.Unlock()
					return
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Let the submitters build up a backlog, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	wg.Wait()

	if !saw503 {
		t.Error("no submitter observed a 503 after shutdown began")
	}
	if len(accepted) == 0 {
		t.Fatal("no jobs were accepted before shutdown")
	}
	seen := make(map[string]bool, len(accepted))
	for _, id := range accepted {
		if seen[id] {
			t.Fatalf("job id %s issued twice", id)
		}
		seen[id] = true
		st, _ := waitTerminal(t, ts, id)
		if st.Status != StateDone {
			t.Fatalf("accepted job %s = %s (%s), want done", id, st.Status, st.Error)
		}
		if st.Result == nil || st.Result.Cycles != 6 {
			t.Fatalf("job %s result = %+v", id, st.Result)
		}
	}

	// The manager's own accounting must agree: exactly one terminal
	// transition per accepted job.
	_, body := getBody(t, ts.URL+"/varz")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("varz: %v: %s", err, body)
	}
	done, err := strconv.Atoi(string(vars["jobs_done"]))
	if err != nil {
		t.Fatalf("jobs_done = %s", vars["jobs_done"])
	}
	if done != len(accepted) {
		t.Errorf("jobs_done = %d, accepted = %d (dropped or duplicated work)", done, len(accepted))
	}
	if string(vars["jobs_failed"]) != "0" {
		t.Errorf("jobs_failed = %s, want 0", vars["jobs_failed"])
	}
}

// TestConcurrentMixedTraffic hammers jobs, sweeps, and status polls at
// once — a -race exercise of every handler sharing the manager.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32, MaxConcurrentSweeps: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sr := submit(t, ts, tprocJob())
				waitTerminal(t, ts, sr.ID)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
					Base:  tprocJob(),
					Seeds: []int64{1, 2},
				})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("sweep status = %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			getBody(t, ts.URL+"/varz")
			getBody(t, ts.URL+"/healthz")
		}
	}()
	wg.Wait()
}

// TestFinishedJobsDoNotHoldMemoryImages runs 200 jobs through one
// manager and keeps them all in its job table. Each run owns a 4 MB
// memory image; a daemon that kept the image of every finished job
// would grow by ~800 MB here, so live heap after a full collection must
// grow by far less. Every job's peek is checked too: the image must
// outlive both result documents.
func TestFinishedJobsDoNotHoldMemoryImages(t *testing.T) {
	_, ts, _ := newArchiveServer(t, Options{Workers: 2, QueueDepth: 256})
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	const jobs = 200
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = submit(t, ts, JobRequest{
			Source: storeSrc,
			Pokes:  []string{"r1=" + strconv.Itoa(i), "r2=1"},
			Peeks:  []string{"100:1"},
		}).ID
	}
	for i, id := range ids {
		st, _ := waitTerminal(t, ts, id)
		if st.Status != StateDone {
			t.Fatalf("job %s: %s", id, st.Error)
		}
		if got := st.Result.Peeks[0].Values[0]; got != int32(i+1) {
			t.Fatalf("job %s: M[100] = %d, want %d", id, got, i+1)
		}
	}
	after := liveHeap()
	if grown := int64(after) - int64(before); grown >= 64<<20 {
		t.Fatalf("live heap grew %d MB over %d finished jobs, want < 64 MB", grown>>20, jobs)
	}
}
