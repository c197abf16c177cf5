package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestSessionsShareSnapshotUnderConcurrency pins the snapshot-cache
// contract: sessions created from the same database spec share one
// frozen snapshot (build once, fork per session), and concurrent jobs
// and costings on those forks are race-free and deterministic. Run
// with -race.
func TestSessionsShareSnapshotUnderConcurrency(t *testing.T) {
	h := newTestServer(t, Config{Workers: 4, QueueCap: 64})

	// First session builds and freezes the snapshot...
	h.newSession(t, "s0")
	if n := h.srv.reg.SnapshotReuses(); n != 0 {
		t.Fatalf("first session reported %d snapshot reuses", n)
	}
	// ...the rest fork it concurrently.
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.newSession(t, fmt.Sprintf("s%d", i))
		}(i)
	}
	wg.Wait()
	if n := h.srv.reg.SnapshotReuses(); n != 3 {
		t.Errorf("snapshot reuses = %d, want 3", n)
	}

	// Concurrent sync costings and merge jobs across all four sessions:
	// four forks of one snapshot costed and searched at once.
	results := make([]JobStatus, 4)
	payloads := make([]json.RawMessage, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", i)
			var cr CostResponse
			h.mustCall(t, "POST", "/v1/sessions/"+sess+"/cost",
				CostRequest{Workload: "w", Indexes: fixtureIndexes}, &cr, http.StatusOK)
			id := h.submitJob(t, sess)
			results[i] = h.waitTerminal(t, id)
			var res JobResult
			h.mustCall(t, "GET", "/v1/jobs/"+id+"/result", nil, &res, http.StatusOK)
			if res.Merge != nil {
				res.Merge.ElapsedSeconds = 0
				payloads[i], _ = json.Marshal(res.Merge)
			}
		}(i)
	}
	wg.Wait()
	for i, st := range results {
		if st.State != string(JobDone) {
			t.Fatalf("session s%d: job state %s (error %q)", i, st.State, st.Error)
		}
	}
	// Shared snapshot, independent forks: every session computes the
	// byte-identical recommendation.
	for i := 1; i < 4; i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Errorf("session s%d diverged:\n s0 %s\n s%d %s", i, payloads[0], i, payloads[i])
		}
	}
}
