package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"mvptree/internal/index"
	"mvptree/internal/obs"
	"mvptree/internal/qexec"
)

// Micro-batching admission path. Each endpoint owns one batcher: a
// bounded queue of pending requests drained by a single collector
// goroutine that groups what it finds into batches for the qexec
// worker-pool executor. The design keeps the goroutine budget fixed —
// one collector per endpoint plus the executor's bounded pool per
// in-flight batch — no matter how many clients connect:
//
//   - Admission is a non-blocking send into the bounded queue. A full
//     queue rejects immediately (the HTTP layer turns that into
//     503 + Retry-After), so overload sheds at the door instead of
//     accumulating goroutines and memory.
//
//   - The collector takes the first waiting request, then keeps
//     collecting until the batch is full or the batching window
//     expires. Under load, batches fill instantly and the window never
//     costs latency; when idle, a lone request pays at most the window.
//
//   - One executed batch serves many HTTP requests: every member is an
//     index.Query with its own radius or k and its own ε and budget, and
//     the batch is one qexec.Run over the swap's current index. Which
//     members share a traversal is the index's call (Query.Shareable).
//
// Cancellation passes through: each request carries its own context,
// and a batch runs under a context that cancels only when every member
// request has been cancelled — one impatient client cannot abort its
// batch-mates. After a cancelled run the executor's AnsweredMask says
// exactly which slots hold real answers; unanswered members get an
// error reply instead of a fabricated empty result.

// ErrQueueFull is the admission rejection: the endpoint's bounded queue
// had no room. The HTTP layer maps it to 503 + Retry-After.
var ErrQueueFull = errors.New("serve: query queue full")

// ErrShuttingDown rejects requests that raced into the queue while the
// server was stopping.
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrCancelled replies to a request whose batch slot was never answered
// because every member of the batch had been cancelled.
var ErrCancelled = errors.New("serve: request cancelled before execution")

// pending is one admitted request waiting for its batch.
type pending[T any] struct {
	ctx context.Context
	req index.Query[T]
	// done receives exactly one reply; buffered so the collector never
	// blocks on a handler that stopped listening.
	done chan reply[T]
}

// reply is the batcher's answer to one pending request.
type reply[T any] struct {
	result index.Result[T]
	err    error
}

// batchStats are the batcher's own counters, read by the stats
// endpoint. All fields are atomics; reads are approximate snapshots.
type batchStats struct {
	admitted  atomic.Int64 // requests accepted into the queue
	rejected  atomic.Int64 // requests refused: queue full
	cancelled atomic.Int64 // admitted requests whose slot went unanswered
	batches   atomic.Int64 // executed batches
	queries   atomic.Int64 // queries answered through batches
}

// batcher is one endpoint's admission queue plus collector.
type batcher[T any] struct {
	queue chan *pending[T]
	stop  chan struct{}
	done  chan struct{}

	swap    *Swap[T]
	maxWait time.Duration
	// opts is what every batch runs with (its Context aside). Batch is
	// both how many requests one batch collects (Options.MaxBatch) and
	// the executor's group size: a collected batch is the
	// shared-traversal group.
	opts qexec.Options

	stats batchStats
}

func newBatcher[T any](swap *Swap[T], opts Options, observer *obs.Observer) *batcher[T] {
	b := &batcher[T]{
		queue:   make(chan *pending[T], opts.Queue),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		swap:    swap,
		maxWait: opts.MaxWait,
		opts:    qexec.Options{Workers: opts.Workers, Batch: opts.MaxBatch, Observer: observer},
	}
	go b.loop()
	return b
}

// submit admits one request, or rejects it immediately when the queue
// is full. The returned channel yields exactly one reply.
func (b *batcher[T]) submit(ctx context.Context, req index.Query[T]) (<-chan reply[T], error) {
	p := &pending[T]{ctx: ctx, req: req, done: make(chan reply[T], 1)}
	select {
	case b.queue <- p:
		b.stats.admitted.Add(1)
		return p.done, nil
	default:
		b.stats.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// close stops the collector and waits for it: the in-flight batch
// finishes, then everything still queued is refused.
func (b *batcher[T]) close() {
	close(b.stop)
	<-b.done
}

func (b *batcher[T]) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			b.refuseQueued()
			return
		case first := <-b.queue:
			batch := append(make([]*pending[T], 0, b.opts.Batch), first)
			timer := time.NewTimer(b.maxWait)
		collect:
			for len(batch) < b.opts.Batch {
				select {
				case p := <-b.queue:
					batch = append(batch, p)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
			b.execute(batch)
		}
	}
}

// refuseQueued drains whatever raced into the queue after stop and
// replies ErrShuttingDown.
func (b *batcher[T]) refuseQueued() {
	for {
		select {
		case p := <-b.queue:
			p.done <- reply[T]{err: ErrShuttingDown}
		default:
			return
		}
	}
}

// execute answers one collected batch with one executor call against
// the index the swap serves right now.
func (b *batcher[T]) execute(batch []*pending[T]) {
	b.stats.batches.Add(1)
	reqs := make([]index.Query[T], len(batch))
	for i, p := range batch {
		reqs[i] = p.req
	}
	ctx, release := mergedContext(batch)
	defer release()
	opts := b.opts
	opts.Context = ctx
	results, stats, err := qexec.Run(b.swap.Load(), reqs, opts)
	for i, p := range batch {
		switch {
		case i < len(stats.AnsweredMask) && stats.AnsweredMask[i]:
			b.stats.queries.Add(1)
			p.done <- reply[T]{result: results[i]}
		case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			p.done <- reply[T]{err: err}
		default:
			b.stats.cancelled.Add(1)
			p.done <- reply[T]{err: ErrCancelled}
		}
	}
}

// mergedContext returns a context that cancels only when EVERY member
// request's context has been cancelled — a batch keeps running as long
// as one member still wants its answer, and a fully abandoned batch
// stops wasting distance computations (qexec's partial-results
// contract picks up from there). The release func detaches the
// watchers; it must be called once the batch is done.
func mergedContext[T any](group []*pending[T]) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(group)))
	stops := make([]func() bool, len(group))
	for i, p := range group {
		stops[i] = context.AfterFunc(p.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// queueDepth reports how many admitted requests wait in the queue.
func (b *batcher[T]) queueDepth() int { return len(b.queue) }
