package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// newTestServer stands up the full serving stack the way navpserve does:
// a wire cluster, a scheduler on it, and the HTTP API registered on the
// cluster's own debug mux — so /jobs and /metrics share one listener.
func newTestServer(t *testing.T, nodes int, cfg Config) (*httptest.Server, *Scheduler, *wire.Cluster) {
	t.Helper()
	cl, err := wire.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	s, err := New(cfg)
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	mux := wire.DebugHandler(cl.Metrics())
	NewServer(s).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		cl.Close()
	})
	return ts, s, cl
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s reply: %v", url, err)
	}
	return resp, out
}

func getStatus(t *testing.T, base string, id uint64) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Config{Workers: 2})
	resp, sub := postJSON(t, ts.URL+"/jobs", SubmitRequest{Kind: "wirematmul", N: 6, Seed: 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	id := uint64(sub["id"].(float64))
	deadline := time.Now().Add(testTimeout)
	var state string
	for {
		code, st := getStatus(t, ts.URL, id)
		if code != http.StatusOK {
			t.Fatalf("status code = %d", code)
		}
		state, _ = st["state"].(string)
		if state == "done" || state == "failed" || state == "evicted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", state)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("terminal state = %q, want done", state)
	}

	// Result: 200 once, 410 forever after.
	resp1, err := http.Get(fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp1.Body).Decode(&body)
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK || body["result"] == nil {
		t.Fatalf("first result fetch: code %d body %v", resp1.StatusCode, body)
	}
	resp2, err := http.Get(fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("second result fetch = %d, want 410 (exactly-once)", resp2.StatusCode)
	}

	// The list endpoint knows the job; /metrics serves the shared registry.
	respList, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	json.NewDecoder(respList.Body).Decode(&list)
	respList.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("job list = %+v", list)
	}
	respMet, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]any
	json.NewDecoder(respMet.Body).Decode(&snap)
	respMet.Body.Close()
	if _, ok := snap["gauges"][MetricJobState(StateDone)]; !ok {
		t.Fatalf("/metrics lacks scheduler gauges: %v", snap["gauges"])
	}
}

func TestHTTPErrorCodes(t *testing.T) {
	ts, s, _ := newTestServer(t, 1, Config{Workers: 1, QueueDepth: 1})

	// A body that parses but describes an impossible job is 422; one
	// that does not decode at all is 400.
	resp, _ := postJSON(t, ts.URL+"/jobs", SubmitRequest{Kind: "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown kind = %d, want 422", resp.StatusCode)
	}
	raw, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", raw.StatusCode)
	}

	// Unknown job: 404 status, 404 result, 404 cancel.
	if code, _ := getStatus(t, ts.URL, 999); code != http.StatusNotFound {
		t.Fatalf("unknown status = %d, want 404", code)
	}
	respR, _ := http.Get(ts.URL + "/jobs/999/result")
	respR.Body.Close()
	if respR.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result = %d, want 404", respR.StatusCode)
	}

	// A queue at capacity answers 429.
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	defer close(gate)
	s.Submit(Spec{Work: WorkFunc{Name: "hold", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}})
	<-started
	s.Submit(Spec{Work: WorkFunc{Name: "hold2", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}})
	resp429, _ := postJSON(t, ts.URL+"/jobs", SubmitRequest{Kind: "wirematmul", N: 4})
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp429.StatusCode)
	}

	// Result of a job that is not done yet: 409.
	var sub SubmitResponse
	respQ, err := http.Post(ts.URL+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"kind":"matmul"}`)))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(respQ.Body).Decode(&sub)
	respQ.Body.Close()
	if respQ.StatusCode != http.StatusAccepted {
		t.Skipf("queue full, cannot stage a pending job (depth race)")
	}
	respND, _ := http.Get(fmt.Sprintf("%s/jobs/%d/result", ts.URL, sub.ID))
	respND.Body.Close()
	if respND.StatusCode != http.StatusConflict {
		t.Fatalf("not-done result = %d, want 409", respND.StatusCode)
	}
}

// TestHTTPMalformedSpecs pins the submit error-code contract,
// table-driven: 400 is reserved for bodies that do not decode at all,
// 422 for bodies that decode into an impossible job, and 202 for the
// valid ones.
func TestHTTPMalformedSpecs(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, Config{Workers: 2})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"truncated json", `{"kind":"wirematmul"`, http.StatusBadRequest},
		{"wrong field type", `{"kind":42}`, http.StatusBadRequest},
		{"not an object", `[1,2,3]`, http.StatusBadRequest},
		{"empty body kind", `{}`, http.StatusUnprocessableEntity},
		{"unknown kind", `{"kind":"frobnicate"}`, http.StatusUnprocessableEntity},
		{"stage out of range", `{"kind":"matmul","stage":99}`, http.StatusUnprocessableEntity},
		{"negative stage", `{"kind":"matmul","stage":-1}`, http.StatusUnprocessableEntity},
		{"unknown plan variant", `{"kind":"plan","variant":"zigzag"}`, http.StatusUnprocessableEntity},
		{"valid wirematmul", `{"kind":"wirematmul","n":4}`, http.StatusAccepted},
		{"valid plan", `{"kind":"plan","rows":2,"cols":2}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("submit %s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestHTTPQueueFullConcurrent saturates a depth-2 queue behind a
// blocked worker with racing submits: the scheduler must admit exactly
// queue-depth jobs and answer 429 to every other racer — never a hang,
// never a 5xx, never an over-admission.
func TestHTTPQueueFullConcurrent(t *testing.T) {
	const depth, racers = 2, 16
	ts, s, _ := newTestServer(t, 1, Config{Workers: 1, QueueDepth: depth})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	defer close(gate)
	s.Submit(Spec{Work: WorkFunc{Name: "hold", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}})
	<-started

	codes := make([]int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json",
				strings.NewReader(`{"kind":"wirematmul","n":4}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	accepted, rejected := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("racer %d: status %d, want 202 or 429", i, c)
		}
	}
	if accepted != depth || rejected != racers-depth {
		t.Fatalf("admission under racing submits: %d accepted, %d rejected; want exactly %d accepted, %d rejected",
			accepted, rejected, depth, racers-depth)
	}
}

// TestHTTPCancelVsResultRace races POST cancel against GET result for a
// batch of jobs. Whatever interleaving wins, the contract must hold: a
// result is delivered with 200 at most once per job (410 forever
// after), a not-yet-terminal result answers 409, an evicted or failed
// job's result answers 422 without ever having delivered, and a cancel
// answers 200 or — already terminal — 404.
func TestHTTPCancelVsResultRace(t *testing.T) {
	const jobs = 12
	ts, _, _ := newTestServer(t, 2, Config{Workers: 4, QueueDepth: jobs})
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json",
				strings.NewReader(`{"kind":"wirematmul","n":4,"retries":1}`))
			if err != nil {
				t.Error(err)
				return
			}
			var sub SubmitResponse
			json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: submit status %d", i, resp.StatusCode)
				return
			}
			resURL := fmt.Sprintf("%s/jobs/%d/result", ts.URL, sub.ID)
			cancelURL := fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, sub.ID)

			// The canceller fires immediately, racing the job through
			// queued, running, and terminal.
			var inner sync.WaitGroup
			inner.Add(1)
			go func() {
				defer inner.Done()
				resp, err := http.Post(cancelURL, "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("job %d: cancel status %d, want 200 or 404", i, resp.StatusCode)
				}
			}()

			// The result poller hammers the endpoint through the race
			// until the outcome settles.
			var ok200, gone410 int
			deadline := time.Now().Add(testTimeout)
			for settled := false; !settled; {
				resp, err := http.Get(resURL)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200++
				case http.StatusGone:
					gone410++
					settled = true // delivered earlier, now tombstoned
				case http.StatusConflict:
					// not terminal yet; keep racing
				case http.StatusUnprocessableEntity:
					settled = true // evicted or failed: no result existed
					if ok200 != 0 {
						t.Errorf("job %d: delivered a result and then reported no-result (422)", i)
					}
				default:
					t.Errorf("job %d: result status %d", i, resp.StatusCode)
					return
				}
				if ok200 > 1 {
					break
				}
				if !settled && time.Now().After(deadline) {
					t.Errorf("job %d: race never settled (ok=%d gone=%d)", i, ok200, gone410)
					return
				}
				if !settled {
					time.Sleep(time.Millisecond)
				}
			}
			inner.Wait()
			if ok200 > 1 {
				t.Errorf("job %d: result delivered %d times — exactly-once violated", i, ok200)
			}
			if ok200 == 1 && gone410 == 0 {
				t.Errorf("job %d: delivered result never tombstoned to 410", i)
			}
		}()
	}
	wg.Wait()
}

func TestHTTPCancel(t *testing.T) {
	ts, s, _ := newTestServer(t, 1, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	defer close(gate)
	// Occupy the single worker directly, then cancel a queued HTTP job:
	// the eviction is deterministic because the job never starts.
	s.Submit(Spec{Work: WorkFunc{Name: "hold", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}})
	<-started
	_, sub := postJSON(t, ts.URL+"/jobs", SubmitRequest{Kind: "matmul"})
	id := uint64(sub["id"].(float64))
	respC, body := postJSON(t, ts.URL+fmt.Sprintf("/jobs/%d/cancel", id), struct{}{})
	if respC.StatusCode != http.StatusOK || body["cancelled"] != true {
		t.Fatalf("cancel reply: %d %v", respC.StatusCode, body)
	}
	if code, st := getStatus(t, ts.URL, id); code != http.StatusOK || st["state"] != "evicted" {
		t.Fatalf("cancelled queued job: code %d status %v, want evicted", code, st)
	}
	// The job's error (422) explains the eviction.
	respR, err := http.Get(fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	respR.Body.Close()
	if respR.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("evicted result = %d, want 422", respR.StatusCode)
	}
}

func TestHTTPDeadlinePropagates(t *testing.T) {
	ts, s, _ := newTestServer(t, 1, Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	// Hold the worker past the HTTP job's deadline; release and expect
	// the worker to evict the expired job instead of running it.
	s.Submit(Spec{Work: WorkFunc{Name: "hold", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}})
	<-started
	_, sub := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Kind: "plan", Rows: 4, Cols: 4, PEs: 2, DeadlineMS: 20, Retries: 2,
	})
	id := uint64(sub["id"].(float64))
	time.Sleep(50 * time.Millisecond)
	close(gate)
	deadline := time.Now().Add(testTimeout)
	for {
		_, st := getStatus(t, ts.URL, id)
		state, _ := st["state"].(string)
		if state == "evicted" {
			break
		}
		if state == "done" || state == "failed" {
			t.Fatalf("expired job ended %q, want evicted", state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
