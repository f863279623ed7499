package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/quant"
	"mvptree/internal/shard"
)

const testDim = 6

func testIndex(t testing.TB, n int, seed uint64) (*mvp.Tree[[]float64], [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	items := dataset.UniformVectors(rng, n, testDim)
	tree, err := mvp.New(items, metric.NewCounter(metric.L2), mvp.Options{Partitions: 2, LeafCapacity: 16, PathLength: 4, Build: mvp.Build{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return tree, items
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

type rangeResponse struct {
	Results [][]float64 `json:"results"`
	Count   int         `json:"count"`
}

type knnResponse struct {
	Neighbors []struct {
		Item []float64 `json:"item"`
		Dist float64   `json:"dist"`
	} `json:"neighbors"`
	Count int `json:"count"`
}

// Concurrent HTTP range and kNN traffic — with mixed radii and k values
// inside the collected batches — answers byte-identically to the index
// queried directly.
func TestServeMatchesDirectQueries(t *testing.T) {
	tree, _ := testIndex(t, 800, 11)
	s := New[[]float64](tree, VectorCodec(testDim), Options{MaxBatch: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewPCG(12, 1))
	queries := dataset.UniformVectors(rng, 24, testDim)
	radii := []float64{0.3, 0.55}
	ks := []int{1, 5}

	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for _, q := range queries {
		for _, r := range radii {
			wg.Add(1)
			go func(q []float64, r float64) {
				defer wg.Done()
				resp, body := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": q, "r": r})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("range status %d: %s", resp.StatusCode, body)
					return
				}
				var got rangeResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- err
					return
				}
				want := tree.Range(q, r)
				if got.Count != len(want) || !reflect.DeepEqual(append([][]float64{}, want...), append([][]float64{}, got.Results...)) {
					errs <- fmt.Errorf("range(%v, %g): got %d results, want %d (or order differs)", q, r, got.Count, len(want))
				}
			}(q, r)
		}
		for _, k := range ks {
			wg.Add(1)
			go func(q []float64, k int) {
				defer wg.Done()
				resp, body := postJSON(t, ts.Client(), ts.URL+"/knn", map[string]any{"query": q, "k": k})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("knn status %d: %s", resp.StatusCode, body)
					return
				}
				var got knnResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- err
					return
				}
				want := tree.KNN(q, k)
				if got.Count != len(want) {
					errs <- fmt.Errorf("knn(%v, %d): %d neighbors, want %d", q, k, got.Count, len(want))
					return
				}
				for i := range want {
					if got.Neighbors[i].Dist != want[i].Dist || !reflect.DeepEqual(got.Neighbors[i].Item, want[i].Item) {
						errs <- fmt.Errorf("knn(%v, %d): neighbor %d differs", q, k, i)
						return
					}
				}
			}(q, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The traffic actually went through batches, and /stats adds up.
	st := s.Stats()
	if st.Range.Queries != int64(len(queries)*len(radii)) || st.KNN.Queries != int64(len(queries)*len(ks)) {
		t.Fatalf("stats queries %d/%d, want %d/%d", st.Range.Queries, st.KNN.Queries, len(queries)*len(radii), len(queries)*len(ks))
	}
	if st.Obs.Queries != st.Range.Queries+st.KNN.Queries {
		t.Fatalf("observer saw %d queries, counters say %d", st.Obs.Queries, st.Range.Queries+st.KNN.Queries)
	}
}

// Malformed requests are rejected at the door with 400s, never reaching
// the metric (where a dimension mismatch would panic).
func TestServeRejectsBadRequests(t *testing.T) {
	tree, _ := testIndex(t, 100, 13)
	s := New[[]float64](tree, VectorCodec(testDim), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body string
	}{
		{"/range", `{"query": [0.1, 0.2], "r": 0.5}`},      // wrong dim
		{"/range", `{"query": [0.1,0.2,0.3,0.4,0.5,0.6]}`}, // missing r
		{"/range", `{"query": "nope", "r": 0.5}`},          // not a vector
		{"/range", `{"query": [0.1,0.2,0.3,0.4,0.5,0.6], "r": -1}`},
		{"/knn", `{"query": [0.1,0.2,0.3,0.4,0.5,0.6], "k": 0}`},
		{"/knn", `{"query": [], "k": 3}`},
		{"/knn", `not json`},
		// Oversized bodies are refused before they are buffered, whatever
		// they would have decoded to.
		{"/range", `{"query": [0.1,0.2,0.3,0.4,0.5,0.6], "r": 0.5, "pad": "` + strings.Repeat("x", 1<<20) + `"}`},
		{"/knn", `{"query": [` + strings.Repeat("0.5,", 300_000) + `0.5], "k": 3}`},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %.80s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// blockingIndex parks every range query on a gate, signalling entry, so
// the admission queue can be filled deterministically.
type blockingIndex struct {
	index.Searcher[[]float64]
	entered chan struct{}
	gate    chan struct{}
}

func (b *blockingIndex) Search(req index.Query[[]float64]) index.Result[[]float64] {
	b.entered <- struct{}{}
	<-b.gate
	return b.Searcher.Search(req)
}

// When the bounded queue is full the server sheds load: 503 with a
// Retry-After hint, immediately, without growing any queue.
func TestServeBackpressure(t *testing.T) {
	tree, _ := testIndex(t, 200, 17)
	blocked := &blockingIndex{Searcher: tree, entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s := New[[]float64](blocked, VectorCodec(testDim), Options{MaxBatch: 1, Queue: 1, Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := make([]float64, testDim)
	body := map[string]any{"query": q, "r": 0.4}

	type result struct {
		status int
		retry  string
	}
	results := make(chan result, 3)
	fire := func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/range", body)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	// First request: collected into an executing batch, parked on the
	// gate. Second: sits in the queue (capacity 1). Third: must bounce.
	go fire()
	<-blocked.entered // batch 1 is executing
	go fire()
	// The queue now holds request 2 (the collector is parked inside
	// request 1). Request 3 finds it full.
	waitFor(t, time.Second, func() bool { return s.rangeB.queueDepth() == 1 })
	go fire()
	first := <-results
	if first.status != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", first.status)
	}
	if first.retry == "" {
		t.Fatalf("503 without Retry-After")
	}

	// Release the gate: the two admitted requests complete.
	close(blocked.gate)
	for i := 0; i < 2; i++ {
		select {
		case <-blocked.entered:
		case <-time.After(2 * time.Second):
		}
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request: status %d, want 200", r.status)
		}
	}
	if st := s.Stats(); st.Range.Rejected != 1 || st.Range.Admitted != 2 {
		t.Fatalf("stats: admitted %d rejected %d, want 2/1", st.Range.Admitted, st.Range.Rejected)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

// saveSnapshot builds a sharded index over items and commits it to dir.
func saveSnapshot(t *testing.T, dir string, items [][]float64, shards int) *shard.Index[[]float64] {
	t.Helper()
	be := shard.MVP[[]float64](mvp.Options{Partitions: 2, LeafCapacity: 16, PathLength: 4})
	x, err := shard.New(items, metric.NewCounter(metric.L2), be, shard.Options{Shards: shards, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.SaveDir(dir, be, codec.EncodeVector); err != nil {
		t.Fatal(err)
	}
	return x
}

// The headline guarantee: reloading the snapshot under concurrent
// traffic swaps the index live with zero failed requests, and every
// response — before, during and after the swaps — is exactly correct.
func TestReloadUnderLoadZeroFailures(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	items := dataset.UniformVectors(rng, 600, testDim)
	dir := filepath.Join(t.TempDir(), "snap")
	direct := saveSnapshot(t, dir, items, 3)

	be := shard.MVP[[]float64](mvp.Options{Partitions: 2, LeafCapacity: 16, PathLength: 4})
	loaded, err := shard.LoadDir(dir, metric.NewCounter(metric.L2), be, codec.DecodeVector)
	if err != nil {
		t.Fatal(err)
	}
	s := New[[]float64](loaded, VectorCodec(testDim), Options{MaxBatch: 8})
	defer s.Close()
	s.SetReloader(func() (index.Searcher[[]float64], error) {
		return shard.LoadDir(dir, metric.NewCounter(metric.L2), be, codec.DecodeVector)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := dataset.UniformVectors(rng, 8, testDim)
	const radius = 0.5
	want := make([][][]float64, len(queries))
	for i, q := range queries {
		want[i] = direct.Range(q, radius)
	}

	const clients = 4
	const perClient = 100
	var failures atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c + i) % len(queries)
				resp, body := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": queries[qi], "r": radius})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d: %s", c, i, resp.StatusCode, body)
					failures.Add(1)
					continue
				}
				var got rangeResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Errorf("client %d req %d: %v", c, i, err)
					failures.Add(1)
					continue
				}
				if !reflect.DeepEqual(append([][]float64{}, want[qi]...), append([][]float64{}, got.Results...)) {
					t.Errorf("client %d req %d: wrong results", c, i)
					failures.Add(1)
				}
			}
		}(c)
	}

	// Reload repeatedly while the clients hammer away.
	const reloads = 5
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/reload", map[string]any{})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
	}()
	wg.Wait()
	close(stop)

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests across the reloads", n)
	}
	st := s.Stats()
	if st.Swaps != reloads {
		t.Fatalf("swaps = %d, want %d", st.Swaps, reloads)
	}
	if st.Range.Queries != clients*perClient {
		t.Fatalf("served %d queries, want %d", st.Range.Queries, clients*perClient)
	}
}

// A failing reload must leave the old index serving and report 500.
func TestReloadFailureKeepsServing(t *testing.T) {
	tree, _ := testIndex(t, 300, 29)
	s := New[[]float64](tree, VectorCodec(testDim), Options{})
	defer s.Close()
	s.SetReloader(func() (index.Searcher[[]float64], error) {
		return nil, fmt.Errorf("synthetic corruption")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/reload", map[string]any{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload status %d, want 500 (%s)", resp.StatusCode, body)
	}
	q := make([]float64, testDim)
	for i := range q {
		q[i] = 0.4
	}
	r2, body := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": q, "r": 0.5})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("query after failed reload: status %d (%s)", r2.StatusCode, body)
	}
	if st := s.Stats(); st.Swaps != 0 {
		t.Fatalf("swaps = %d after failed reload, want 0", st.Swaps)
	}
}

// One cancelled client must not abort its batch-mates: requests
// co-batched with it still get full, correct answers. Only when every
// member of a batch is gone does the merged context cancel the run.
func TestCancellationPassthrough(t *testing.T) {
	tree, _ := testIndex(t, 400, 31)
	blocked := &blockingIndex{Searcher: tree, entered: make(chan struct{}, 8), gate: make(chan struct{})}
	s := New[[]float64](blocked, VectorCodec(testDim), Options{MaxBatch: 4, Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewPCG(37, 1))
	qs := dataset.UniformVectors(rng, 3, testDim)

	// A first request parks the collector inside its batch, so the
	// doomed request and the survivor queue behind it and are collected
	// together once the gate opens.
	parked := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": qs[2], "r": 0.5})
		parked <- resp.StatusCode
	}()
	<-blocked.entered

	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(map[string]any{"query": qs[0], "r": 0.5})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/range", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	doomed := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		doomed <- err
	}()
	waitFor(t, time.Second, func() bool { return s.rangeB.queueDepth() == 1 })
	survivor := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": qs[1], "r": 0.5})
		survivor <- struct {
			status int
			body   []byte
		}{resp.StatusCode, body}
	}()
	waitFor(t, time.Second, func() bool { return s.rangeB.queueDepth() == 2 })
	cancel()
	if err := <-doomed; err == nil {
		t.Fatalf("cancelled request returned without error")
	}
	close(blocked.gate)
	if status := <-parked; status != http.StatusOK {
		t.Fatalf("parked request: status %d", status)
	}

	got := <-survivor
	if got.status != http.StatusOK {
		t.Fatalf("survivor status %d: %s", got.status, got.body)
	}
	var parsed rangeResponse
	if err := json.Unmarshal(got.body, &parsed); err != nil {
		t.Fatal(err)
	}
	want := tree.Range(qs[1], 0.5)
	if !reflect.DeepEqual(append([][]float64{}, want...), append([][]float64{}, parsed.Results...)) {
		t.Fatalf("survivor got wrong results")
	}
	if st := s.Stats(); st.Range.Batches != 2 || st.Range.Cancelled != 0 {
		t.Fatalf("batches %d, cancelled %d; want 2 (the parked one, then doomed and survivor together) and 0", st.Range.Batches, st.Range.Cancelled)
	}
}

// After Close the server refuses new work with 503 instead of hanging
// or panicking, and closing twice is safe.
func TestCloseRefusesNewWork(t *testing.T) {
	tree, _ := testIndex(t, 100, 41)
	s := New[[]float64](tree, VectorCodec(testDim), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	s.Close()
	q := make([]float64, testDim)
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/range", map[string]any{"query": q, "r": 0.2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close status %d, want 503", resp.StatusCode)
	}
}

// A k far beyond the item count is a request for every item, not for a
// heap of that many slots: the daemon answers it and stays up.
func TestHugeKAnswersEveryItem(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	items := dataset.UniformVectors(rng, 300, testDim)
	x, err := shard.New(items, metric.NewCounter(metric.L2),
		shard.MVP[[]float64](mvp.Options{Partitions: 2, LeafCapacity: 16, PathLength: 4}), shard.Options{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New[[]float64](x, VectorCodec(testDim), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/knn", map[string]any{"query": items[0], "k": 1 << 40})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k = 1<<40: status %d: %s", resp.StatusCode, body)
	}
	var got knnResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != len(items) || len(got.Neighbors) != len(items) {
		t.Fatalf("k = 1<<40: %d neighbors (count %d), want all %d items", len(got.Neighbors), got.Count, len(items))
	}
	for i := 1; i < len(got.Neighbors); i++ {
		if got.Neighbors[i].Dist < got.Neighbors[i-1].Dist {
			t.Fatalf("neighbors not ascending at %d", i)
		}
	}
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the huge-k request: status %d", health.StatusCode)
	}
}

// Requests that differ in radius and in ε are one batch and one executor
// call when they are queued together; each still gets its own answer.
// More queued requests than MaxBatch run as ⌈n/MaxBatch⌉ batches.
func TestMixedRequestsShareOneBatch(t *testing.T) {
	tree, _ := testIndex(t, 400, 47)
	rng := rand.New(rand.NewPCG(53, 1))
	q := dataset.UniformVectors(rng, 1, testDim)[0]
	bodies := []map[string]any{
		{"query": q, "r": 0.3},
		{"query": q, "r": 0.6},
		{"query": q, "r": 0.6, "epsilon": 0.5},
	}
	const maxBatch = 3
	// serveQueued parks the collector on one request, queues n members
	// behind it (bodies in turn), opens the gate, checks every member's
	// answer, and returns the endpoint's stats without the parked
	// request's batch and query.
	serveQueued := func(n int) (batches, queries int64) {
		blocked := &blockingIndex{Searcher: tree, entered: make(chan struct{}, n+1), gate: make(chan struct{})}
		s := New[[]float64](blocked, VectorCodec(testDim), Options{MaxBatch: maxBatch, Workers: 1})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		var wg sync.WaitGroup
		post := func(b map[string]any) {
			defer wg.Done()
			resp, body := postJSON(t, ts.Client(), ts.URL+"/range", b)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var got rangeResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Error(err)
				return
			}
			req := index.RangeQuery(q, b["r"].(float64))
			if eps, ok := b["epsilon"]; ok {
				req.Opts.Epsilon = eps.(float64)
			}
			want := tree.Search(req).Items
			if !reflect.DeepEqual(append([][]float64{}, want...), append([][]float64{}, got.Results...)) {
				t.Errorf("%v: got %d results, want %d (or order differs)", b, got.Count, len(want))
			}
		}
		wg.Add(1)
		go post(bodies[0])
		<-blocked.entered
		for i := range n {
			wg.Add(1)
			go post(bodies[i%len(bodies)])
		}
		waitFor(t, time.Second, func() bool { return s.rangeB.queueDepth() == n })
		close(blocked.gate)
		wg.Wait()
		st := s.Stats()
		return st.Range.Batches - 1, st.Range.Queries - 1
	}

	if batches, queries := serveQueued(len(bodies)); batches != 1 || queries != 3 {
		t.Fatalf("batches %d, queries %d; want 1 and 3", batches, queries)
	}
	const n = 7
	if batches, queries := serveQueued(n); batches != (n+maxBatch-1)/maxBatch || queries != n {
		t.Fatalf("%d queued: batches %d, queries %d; want %d and %d", n, batches, queries, (n+maxBatch-1)/maxBatch, n)
	}
}

// An index swapped in in-process (Swap().Store, as a process that
// rebuilds without reloading does) reports its quantized skips like the
// one it replaced: they are its queries' SearchStats.FilteredByQuantized,
// recorded by the executor, so the observer's total keeps growing by
// exactly what the new index's Results carry.
func TestSwapKeepsQuantizedTally(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 1))
	items := dataset.UniformVectors(rng, 800, testDim)
	trees := make([]*mvp.Tree[[]float64], 2)
	for i := range trees {
		tree, err := mvp.New(items, metric.NewCounter(metric.L2),
			mvp.Options{Partitions: 2, LeafCapacity: 32, PathLength: 4, Build: mvp.Build{Seed: uint64(60 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableQuantize(quant.SQ8); err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	s := New[[]float64](trees[0], VectorCodec(testDim), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := dataset.UniformVectors(rng, 8, testDim)
	tally := func() int64 { return s.Observer().Snapshot().Search.FilteredByQuantized }
	// serveAll posts a range and a kNN request per query and returns the
	// skips the served tree's Results carry for them.
	serveAll := func(tree *mvp.Tree[[]float64]) int64 {
		var want int64
		for _, q := range queries {
			for path, req := range map[string]index.Query[[]float64]{"/range": index.RangeQuery(q, 0.3), "/knn": index.KNNQuery(q, 5)} {
				body := map[string]any{"query": q, "r": req.Radius}
				if req.K > 0 {
					body = map[string]any{"query": q, "k": req.K}
				}
				if resp, out := postJSON(t, ts.Client(), ts.URL+path, body); resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, out)
				}
				want += int64(tree.Search(req).Stats.FilteredByQuantized)
			}
		}
		return want
	}
	for i, tree := range trees {
		if i > 0 {
			s.Swap().Store(tree)
		}
		before := tally()
		want := serveAll(tree)
		if got := tally() - before; got != want || got == 0 {
			t.Fatalf("index %d: the observer's total grew by %d, the Results carry %d skips", i, got, want)
		}
	}
}

// A query whose distance to every item overflows to +Inf — valid JSON —
// has no neighbor: /knn answers 200 with count 0 and the daemon stays up.
func TestKNNOverflowAnswersEmpty(t *testing.T) {
	tree, _ := testIndex(t, 300, 61)
	s := New[[]float64](tree, VectorCodec(testDim), Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := []float64{1e200, 1e200, 1e200, 1e200, 1e200, 1e200}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/knn", map[string]any{"query": huge, "k": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got knnResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if got.Count != 0 || len(got.Neighbors) != 0 {
		t.Fatalf("%d neighbors (count %d) at an infinite distance, want none", len(got.Neighbors), got.Count)
	}
	health, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the overflowing query: status %d", health.StatusCode)
	}
}

// Replace publishes an index as Store does, for every later Load, and is
// not counted among the swaps.
func TestSwapReplaceIsNoSwap(t *testing.T) {
	a, _ := testIndex(t, 50, 62)
	b, _ := testIndex(t, 60, 63)
	c, _ := testIndex(t, 70, 64)
	s := NewSwap[[]float64](a)
	s.Store(b)
	s.Replace(c)
	if got := s.Load(); got.Len() != c.Len() || s.Swaps() != 1 {
		t.Fatalf("after Store and Replace: serving %d items, %d swaps; want %d and 1", got.Len(), s.Swaps(), c.Len())
	}
}
