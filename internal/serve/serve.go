// Package serve is the network serving layer: a stdlib net/http JSON
// query server over any index.Searcher — a single tree or a sharded
// shard.Index alike — built for sustained concurrent load:
//
//   - Bounded admission. Each endpoint owns a fixed-capacity queue;
//     when it is full the request is rejected immediately with
//     503 + Retry-After. The server's goroutine budget does not grow
//     with offered load, and overload degrades into fast rejections
//     instead of collapse.
//
//   - Micro-batching. Whatever is queued when the collector is free
//     is one batch (up to MaxBatch), answered through the qexec
//     worker-pool executor, so concurrent HTTP traffic is served with
//     the same deterministic batch machinery the experiments use. No
//     clock holds a batch open: batch size follows load.
//
//   - Cancellation passthrough. Every request carries its HTTP
//     context; a batch is cancelled only when all of its members are,
//     and the executor's AnsweredMask separates real answers from
//     abandoned slots.
//
//   - Live index swap. The served index sits behind an atomic pointer
//     (Swap). Reload — from the crash-safe shard snapshot directory —
//     builds the new index off to the side and publishes it with one
//     pointer store: in-flight batches finish on the old index, later
//     batches use the new one, and no request ever fails because of a
//     swap.
//
//   - Telemetry. One obs.Observer records every served query; /stats
//     returns its snapshot plus the admission counters, and the same
//     snapshot is published through expvar on /debug/vars.
package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mvptree/internal/index"
	"mvptree/internal/obs"
)

// Options tune the serving layer. The zero value serves sensible
// defaults.
type Options struct {
	// MaxBatch bounds how many requests one executed batch may carry; a
	// collected batch is also the executor's shared-traversal group
	// (qexec.Options.Batch), so the members an index can answer together
	// (index.Query.Shareable) descend it once per worker. Answers are
	// byte-identical at every value; per-query latency samples in /stats
	// are amortized over a group. Default 32.
	MaxBatch int
	// Queue is each endpoint's admission-queue capacity; a full queue
	// rejects with 503. Default 256.
	Queue int
	// Workers is the executor worker count per batch. Default
	// GOMAXPROCS.
	Workers int
	// RetryAfter is the hint sent with 503 rejections. Default 1s.
	RetryAfter time.Duration
	// ExpvarName, when non-empty, publishes the server's observer
	// snapshot under this expvar name (readable on /debug/vars).
	ExpvarName string
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.Queue <= 0 {
		o.Queue = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Codec bridges the wire JSON and the index's item type.
type Codec[T any] struct {
	// DecodeQuery parses the "query" field of a request. Returning an
	// error produces a 400; it is also the place to validate shape
	// (e.g. vector dimensionality) so a malformed query can never
	// reach the metric.
	DecodeQuery func(raw json.RawMessage) (T, error)
	// EncodeItem renders one result item into a JSON-marshalable
	// value.
	EncodeItem func(item T) (any, error)
}

// VectorCodec is the Codec for []float64 items under an enforced
// dimensionality (dim <= 0 skips the check — only safe when every
// stored item already has the same length as every query).
func VectorCodec(dim int) Codec[[]float64] {
	return Codec[[]float64]{
		DecodeQuery: func(raw json.RawMessage) ([]float64, error) {
			var v []float64
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("query is not a number array: %w", err)
			}
			if len(v) == 0 {
				return nil, errors.New("query vector is empty")
			}
			if dim > 0 && len(v) != dim {
				return nil, fmt.Errorf("query has %d dimensions, index stores %d", len(v), dim)
			}
			return v, nil
		},
		EncodeItem: func(item []float64) (any, error) { return item, nil },
	}
}

// Server is the HTTP serving front end over a swappable index.
type Server[T any] struct {
	opts  Options
	codec Codec[T]
	swap  *Swap[T]
	obs   *obs.Observer

	// One batcher per endpoint, so each has its own admission queue and
	// /stats counters and a flood of one kind cannot starve the other.
	rangeB *batcher[T]
	knnB   *batcher[T]

	reloadMu sync.Mutex
	reloader func() (index.Searcher[T], error)

	closed    atomic.Bool
	closeOnce sync.Once
	started   time.Time
}

// New starts a Server over idx. The collectors run immediately; attach
// the value returned by Handler to an http.Server and call Close on
// the way out.
func New[T any](idx index.Searcher[T], codec Codec[T], opts Options) *Server[T] {
	opts = opts.withDefaults()
	s := &Server[T]{
		opts:    opts,
		codec:   codec,
		swap:    NewSwap(idx),
		obs:     obs.NewObserver(0),
		started: time.Now(),
	}
	s.rangeB = newBatcher(s.swap, opts, s.obs)
	s.knnB = newBatcher(s.swap, opts, s.obs)
	if opts.ExpvarName != "" {
		obs.PublishExpvar(opts.ExpvarName, s.obs)
	}
	return s
}

// SetReloader installs the snapshot loader behind POST /admin/reload.
// Without one the endpoint answers 501.
func (s *Server[T]) SetReloader(fn func() (index.Searcher[T], error)) { s.reloader = fn }

// Swap exposes the underlying atomic index holder (for tests and for
// processes that rebuild in-process instead of reloading from disk).
func (s *Server[T]) Swap() *Swap[T] { return s.swap }

// Observer returns the server's query observer.
func (s *Server[T]) Observer() *obs.Observer { return s.obs }

// Close stops the collectors after their in-flight batches finish and
// refuses everything still queued. Call it after http.Server.Shutdown
// so handlers have drained first. Idempotent.
func (s *Server[T]) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.rangeB.close()
		s.knnB.close()
	})
}

// Handler returns the server's routing table:
//
//	POST /range        {"query": ..., "r": 0.5, "epsilon": 0.2, "budget": 500}
//	POST /knn          {"query": ..., "k": 5, "epsilon": 0.2, "budget": 500}
//
// epsilon and budget are optional (zero = exact); approximate
// responses carry "approximate" and "exhausted" flags.
//
// Remaining endpoints:
//
//	GET  /stats        admission counters + observer snapshot
//	GET  /healthz      liveness
//	POST /admin/reload swap in a freshly loaded snapshot
//	GET  /debug/vars   expvar (includes the observer when ExpvarName set)
func (s *Server[T]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /range", s.handleRange)
	mux.HandleFunc("POST /knn", s.handleKNN)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// maxBodyBytes bounds a request body: a query is one item and three
// numbers, so anything larger is refused before it is buffered.
const maxBodyBytes = 1 << 20

// queryRequest is the POST body of both query endpoints: r for /range,
// k for /knn. epsilon and budget are the optional approximation knobs
// (index.SearchOptions): epsilon allows answers within a (1+ε) factor,
// budget caps the distance computations one query may spend. Both
// default to zero — exact.
type queryRequest struct {
	Query   json.RawMessage `json:"query"`
	R       *float64        `json:"r"`
	K       *int            `json:"k"`
	Epsilon float64         `json:"epsilon"`
	Budget  int64           `json:"budget"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// overloaded writes the backpressure rejection: 503 plus a Retry-After
// hint, the contract load generators and clients key off.
func (s *Server[T]) overloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ErrQueueFull.Error()})
}

// parse reads what the two query endpoints share out of the body: the
// query point and the approximation knobs. When ok is false the
// rejection has been written.
func (s *Server[T]) parse(w http.ResponseWriter, r *http.Request) (body queryRequest, req index.Query[T], ok bool) {
	if s.closed.Load() {
		s.overloaded(w)
		return body, req, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		badRequest(w, "bad request body: %v", err)
		return body, req, false
	}
	if body.Epsilon < 0 || body.Budget < 0 {
		badRequest(w, "negative %q or %q", "epsilon", "budget")
		return body, req, false
	}
	q, err := s.codec.DecodeQuery(body.Query)
	if err != nil {
		badRequest(w, "bad query: %v", err)
		return body, req, false
	}
	req = index.Query[T]{Point: q, Opts: index.SearchOptions{Epsilon: body.Epsilon, Budget: body.Budget}}
	return body, req, true
}

// answer admits req to its endpoint's batcher and waits for the reply.
// When ok is false the response is written, or the client is gone and
// the buffered reply is dropped on the floor.
func (s *Server[T]) answer(w http.ResponseWriter, r *http.Request, b *batcher[T], req index.Query[T]) (res index.Result[T], ok bool) {
	done, err := b.submit(r.Context(), req)
	if err != nil {
		s.overloaded(w)
		return res, false
	}
	select {
	case rep := <-done:
		if rep.err != nil {
			s.replyError(w, rep.err)
			return res, false
		}
		return rep.result, true
	case <-r.Context().Done():
		return res, false
	}
}

// writeAnswer writes a 200: the endpoint's list under key, its length and, for
// an approximate request, "exhausted" (the budget cut the traversal
// short) and "approximate" (the answer is not certified exact: an ε was
// in play or the budget ran out). Exact requests keep the original
// response shape.
func writeAnswer[L any](w http.ResponseWriter, key string, list []L, o index.SearchOptions, exhausted bool) {
	body := map[string]any{key: list, "count": len(list)}
	if o.Epsilon != 0 || o.Budget != 0 {
		body["exhausted"] = exhausted
		body["approximate"] = o.Epsilon > 0 || exhausted
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server[T]) handleRange(w http.ResponseWriter, r *http.Request) {
	body, req, ok := s.parse(w, r)
	if !ok {
		return
	}
	if body.R == nil || *body.R < 0 {
		badRequest(w, "missing or negative radius %q", "r")
		return
	}
	req.Radius = *body.R
	res, ok := s.answer(w, r, s.rangeB, req)
	if !ok {
		return
	}
	items := make([]any, len(res.Items))
	for i, it := range res.Items {
		var err error
		if items[i], err = s.codec.EncodeItem(it); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	writeAnswer(w, "results", items, req.Opts, res.Exhausted())
}

func (s *Server[T]) handleKNN(w http.ResponseWriter, r *http.Request) {
	body, req, ok := s.parse(w, r)
	if !ok {
		return
	}
	if body.K == nil || *body.K < 1 {
		badRequest(w, "missing or non-positive %q", "k")
		return
	}
	req.K = *body.K
	res, ok := s.answer(w, r, s.knnB, req)
	if !ok {
		return
	}
	type wireNeighbor struct {
		Item any     `json:"item"`
		Dist float64 `json:"dist"`
	}
	neighbors := make([]wireNeighbor, len(res.Neighbors))
	for i, nb := range res.Neighbors {
		item, err := s.codec.EncodeItem(nb.Item)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		neighbors[i] = wireNeighbor{Item: item, Dist: nb.Dist}
	}
	writeAnswer(w, "neighbors", neighbors, req.Opts, res.Exhausted())
}

func (s *Server[T]) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShuttingDown):
		s.overloaded(w)
	case errors.Is(err, ErrCancelled):
		// The client that could have read this is gone; 499-style.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// EndpointStats is one endpoint's admission and batching counters.
type EndpointStats struct {
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	Cancelled  int64 `json:"cancelled"`
	Batches    int64 `json:"batches"`
	Queries    int64 `json:"queries"`
	QueueDepth int   `json:"queue_depth"`
}

func endpointStats[T any](b *batcher[T]) EndpointStats {
	return EndpointStats{
		Admitted:   b.stats.admitted.Load(),
		Rejected:   b.stats.rejected.Load(),
		Cancelled:  b.stats.cancelled.Load(),
		Batches:    b.stats.batches.Load(),
		Queries:    b.stats.queries.Load(),
		QueueDepth: b.queueDepth(),
	}
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Items     int           `json:"items"`
	Swaps     int64         `json:"swaps"`
	UptimeSec float64       `json:"uptime_sec"`
	Range     EndpointStats `json:"range"`
	KNN       EndpointStats `json:"knn"`
	Obs       obs.Snapshot  `json:"obs"`
}

// Stats assembles the live serving counters and observer snapshot.
func (s *Server[T]) Stats() StatsResponse {
	return StatsResponse{
		Items:     s.swap.Load().Len(),
		Swaps:     s.swap.Swaps(),
		UptimeSec: time.Since(s.started).Seconds(),
		Range:     endpointStats(s.rangeB),
		KNN:       endpointStats(s.knnB),
		Obs:       s.obs.Snapshot(),
	}
}

func (s *Server[T]) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server[T]) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "items": s.swap.Load().Len()})
}

func (s *Server[T]) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.reloader == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "no reloader configured"})
		return
	}
	// Serialize reloads; queries are never blocked — they keep hitting
	// whatever the swap currently holds.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	idx, err := s.reloader()
	if err != nil {
		// The old index keeps serving; reload failure is not an outage.
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("reload failed, still serving previous index: %v", err)})
		return
	}
	s.swap.Store(idx)
	writeJSON(w, http.StatusOK, map[string]any{"items": idx.Len(), "swaps": s.swap.Swaps()})
}
