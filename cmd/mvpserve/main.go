// Command mvpserve is the network serving daemon: a JSON-over-HTTP
// query server over a sharded mvp-tree index, with bounded admission,
// micro-batched execution, live telemetry and zero-downtime snapshot
// reload.
//
// Usage:
//
//	mvpserve -addr :8080 -n 50000 -dim 20 -shards 4
//	mvpserve -addr :8080 -dir /var/lib/mvptree/snap -dim 20
//
// With -dir pointing at a directory containing a snapshot (written by a
// previous run or by shard.Index.SaveDir), the index is loaded from
// disk, and every vector in it must have -dim coordinates. Otherwise a
// synthetic uniform-vector index is built at startup, its filters are
// armed, and the daemon listens; beside serving, a copy of the index that
// owns its vectors in leaf order is then packed and put in its place
// (which the swaps reported do not count: it answers as the index it
// replaces), and when -dir is set that copy's snapshot is written there,
// one blob at a time, so a later POST /admin/reload (or a fresh process)
// can pick it up. A reload, and the shutdown, wait until both are done;
// a save that fails ends the daemon with a non-zero exit once in-flight
// requests drain.
// Reload loads the snapshot beside the serving index and swaps it in
// atomically: in-flight requests finish on the old index, no request
// fails.
//
// Endpoints:
//
//	POST /range        {"query": [...], "r": 0.5, "epsilon": 0.2, "budget": 500}
//	POST /knn          {"query": [...], "k": 5, "epsilon": 0.2, "budget": 500}
//	GET  /stats        admission counters + observer snapshot
//	GET  /healthz      liveness probe
//	POST /admin/reload swap in the snapshot at -dir
//	GET  /debug/vars   expvar, including the observer snapshot
//
// The process exits cleanly on SIGINT/SIGTERM: the listener stops, in
// flight requests drain, the batchers shut down, and a snapshot still
// being written is committed first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"mvptree/internal/cascade"
	"mvptree/internal/codec"
	"mvptree/internal/dataset"
	"mvptree/internal/index"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/quant"
	"mvptree/internal/serve"
	"mvptree/internal/shard"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Stdout, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "mvpserve:", err)
		os.Exit(1)
	}
}

func vectorMetric(name string) (metric.DistanceFunc[[]float64], error) {
	switch name {
	case "l1":
		return metric.L1, nil
	case "l2":
		return metric.L2, nil
	case "linf":
		return metric.LInf, nil
	default:
		return nil, fmt.Errorf("unknown metric %q (want l1, l2 or linf)", name)
	}
}

// run starts the daemon and blocks until ctx is cancelled. When ready
// is non-nil it receives the bound listen address once the server
// accepts connections (the test hook; main passes nil).
func run(ctx context.Context, out io.Writer, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("mvpserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		dir        = fs.String("dir", "", "snapshot directory: load the index from it if it holds a manifest, else build and save into it; /admin/reload re-reads it")
		n          = fs.Int("n", 20000, "synthetic dataset size when building at startup")
		dim        = fs.Int("dim", 20, "vector dimensionality (must match the snapshot when loading)")
		dataSeed   = fs.Uint64("dataseed", 1, "synthetic dataset seed")
		metricName = fs.String("metric", "l2", "vector metric: l1, l2 or linf")
		shards     = fs.Int("shards", 4, "shard count for a built index")
		buildW     = fs.Int("buildworkers", 0, "construction goroutines (0 = GOMAXPROCS)")
		leafCap    = fs.Int("leafcap", 50, "mvp-tree leaf capacity")
		partitions = fs.Int("partitions", 3, "mvp-tree partitions per vantage point")
		pathLen    = fs.Int("pathlen", 5, "mvp-tree retained path length")
		maxBatch   = fs.Int("maxbatch", 32, "max queries per executed batch (one shared traversal per worker)")
		maxWait    = fs.Duration("maxwait", 2*time.Millisecond, "batching window")
		queue      = fs.Int("queue", 256, "per-endpoint admission queue capacity (full queue = 503)")
		workers    = fs.Int("workers", 0, "executor goroutines per batch (0 = GOMAXPROCS)")
		retryAfter = fs.Duration("retryafter", time.Second, "Retry-After hint on 503 rejections")
		casOn      = fs.Bool("cascade", false, "arm the bound cascade on every shard (identical results; each query pays the pivots up front and skips the leaf candidates they exclude)")
		casPivots  = fs.Int("cascadepivots", 0, "cascade pivots per shard, with -cascade (0 = default)")
		quantize   = fs.String("quantize", "off", "quantized lower-bound pre-filter on every shard: off or sq8 (identical results, less leaf-scan memory traffic)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A value no default may stand in for silently; 0 keeps the meaning
	// the help text gives it.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*n < 0, "-n must be non-negative"},
		{*dim <= 0, "-dim must be positive"},
		{*shards < 1, "-shards must be at least 1"},
		{*buildW < 0, "-buildworkers must be non-negative (0 = GOMAXPROCS)"},
		{*maxBatch < 1, "-maxbatch must be at least 1"},
		{*maxWait <= 0, "-maxwait must be positive"},
		{*queue < 1, "-queue must be at least 1"},
		{*workers < 0, "-workers must be non-negative (0 = GOMAXPROCS)"},
		{*retryAfter <= 0, "-retryafter must be positive"},
		{*casPivots != 0 && !*casOn, "-cascadepivots needs -cascade"},
	} {
		if c.bad {
			return errors.New(c.msg)
		}
	}
	qmode, err := quant.ParseMode(*quantize)
	if err != nil {
		return fmt.Errorf("-quantize: %w", err)
	}
	distFn, err := vectorMetric(*metricName)
	if err != nil {
		return err
	}
	be := shard.MVP[[]float64](mvp.Options{
		Partitions:   *partitions,
		LeafCapacity: *leafCap,
		PathLength:   *pathLen,
	})

	casOpts := cascade.Options{Pivots: *casPivots, Workers: *buildW}
	// Every vector of every shard is held to -dim as it is decoded: the
	// queries are, and the metric panics on two lengths.
	decode := func(b []byte) ([]float64, error) {
		v, err := codec.DecodeVector(b)
		if err == nil && len(v) != *dim {
			err = fmt.Errorf("snapshot holds %d-dimensional vectors, -dim is %d", len(v), *dim)
		}
		return v, err
	}
	load := func() (*shard.Index[[]float64], error) {
		x, err := shard.LoadDir(*dir, metric.NewCounter(distFn), be, decode)
		if err != nil {
			return nil, err
		}
		// The cascade and quantized arenas are not serialized; rebuild
		// them on every load (and reload) so a swapped-in index serves
		// with the same filters.
		if *casOn {
			if err := x.EnableCascade(casOpts); err != nil {
				return nil, err
			}
		}
		if qmode != quant.Off {
			if err := x.EnableQuantize(qmode); err != nil {
				return nil, err
			}
		}
		return x, nil
	}

	var x *shard.Index[[]float64]
	// A built index is packed beside serving (startPack), and its snapshot
	// written beside the queries once it is; packDone and saveDone are nil
	// once their lines are printed, or the save's outcome reported, and
	// when there is nothing to pack or save.
	var pack *pendingPack
	var packDone <-chan struct{}
	var save *pendingSave
	var saveDone <-chan struct{}
	built := false
	switch {
	case *dir != "" && hasManifest(*dir):
		start := time.Now()
		x, err = load()
		if err != nil {
			return fmt.Errorf("loading snapshot from %s: %w", *dir, err)
		}
		g := filterGrid(x)
		fmt.Fprintf(out, "mvpserve: loaded %d items from %s in %v (leaf filter step %.3g, slack %.3g)\n",
			x.Len(), *dir, time.Since(start).Round(time.Millisecond), g.FilterStep, g.FilterSlack)
	default:
		start := time.Now()
		rng := rand.New(rand.NewPCG(*dataSeed, 0))
		items := dataset.UniformVectors(rng, *n, *dim)
		var bs shard.BuildStats
		x, bs, err = shard.NewWithStats(items, metric.NewCounter(distFn), be, shard.Options{
			Shards: *shards, Workers: *buildW, Seed: *dataSeed,
		})
		if err != nil {
			return fmt.Errorf("building index: %w", err)
		}
		took := time.Since(start)
		g := filterGrid(x)
		fmt.Fprintf(out, "mvpserve: built %d items / %d shards in %v (%d distances assigning the shards, %d building the trees, %d of them choosing vantage points; index %.1f B/item, leaf filter step %.3g, slack %.3g)\n",
			x.Len(), x.Shards(), took.Round(time.Millisecond), bs.AssignDistances, bs.Distances-bs.AssignDistances, bs.SelectionDistances, indexBytes(g, x.Len()), g.FilterStep, g.FilterSlack)
		if *casOn {
			before := x.DistanceCount()
			if err := x.EnableCascade(casOpts); err != nil {
				return fmt.Errorf("enabling cascade: %w", err)
			}
			g := filterGrid(x)
			fmt.Fprintf(out, "mvpserve: cascade enabled (%d precomputed distances, %d pivots per shard, arena %.1f B/item, step %.3g, slack %.3g)\n",
				x.DistanceCount()-before, g.CascadePivots, float64(g.CascadeBytes)/float64(max(g.LeafItems, 1)), g.CascadeStep, g.CascadeSlack)
		}
		if qmode != quant.Off {
			if err := x.EnableQuantize(qmode); err != nil {
				return fmt.Errorf("enabling quantize: %w", err)
			}
			fmt.Fprintf(out, "mvpserve: quantized pre-filter enabled (%s)\n", qmode)
		}
		built = true
	}

	s := serve.New[[]float64](x, serve.VectorCodec(*dim), serve.Options{
		MaxBatch:   *maxBatch,
		MaxWait:    *maxWait,
		Queue:      *queue,
		Workers:    *workers,
		RetryAfter: *retryAfter,
		ExpvarName: "mvpserve",
	})
	defer s.Close()
	if built {
		pack = startPack(x, s.Swap())
		packDone = pack.done
		if *dir != "" {
			save = startSave(pack, *dir, be)
			saveDone = save.done
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// err is what failed; the pack and the save are only not left
		// running.
		pack.wait()
		_ = save.wait()
		return err
	}
	if *dir != "" {
		s.SetReloader(func() (index.Searcher[[]float64], error) {
			// A reload reads what the first save commits, which follows
			// the pack, so it never swaps in before the packed index.
			if err := save.wait(); err != nil {
				return nil, err
			}
			x, err := load()
			if err != nil {
				return nil, err
			}
			return x, nil
		})
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(out, "mvpserve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// committed waits for the snapshot and prints its line from this
	// goroutine, the only one that writes out.
	committed := func() error {
		saveDone = nil
		if err := save.wait(); err != nil {
			return err
		}
		fmt.Fprint(out, save.line)
		return nil
	}
	var saveErr error
serving:
	for {
		select {
		case err := <-errc:
			pack.wait()
			_ = save.wait() // as after a failed Listen
			return err
		case <-packDone:
			packDone = nil
			fmt.Fprint(out, pack.line)
		case <-saveDone:
			if saveErr = committed(); saveErr != nil {
				break serving
			}
		case <-ctx.Done():
			break serving
		}
	}
	fmt.Fprintf(out, "mvpserve: shutting down\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.Close()
	if packDone != nil {
		pack.wait()
		fmt.Fprint(out, pack.line)
	}
	// The process leaves a loadable snapshot behind, or says it did not.
	if saveDone != nil {
		saveErr = committed()
	}
	st := s.Stats()
	fmt.Fprintf(out, "mvpserve: served %d queries (%d range, %d knn), rejected %d, %d swaps\n",
		st.Range.Queries+st.KNN.Queries, st.Range.Queries, st.KNN.Queries,
		st.Range.Rejected+st.KNN.Rejected, st.Swaps)
	return saveErr
}

// indexBytes is what an index of n items with the shape g adds to the heap
// per item: its arenas, which the live heap matches (mvp's
// TestIndexBytesPerItem), counted without forcing a collection on the way
// to the first reply; the vectors an index owns are apart (OwnedBytes).
func indexBytes(g mvp.Stats, n int) float64 {
	return float64(g.NodeBytes+g.FilterBytes+g.ItemBytes) / float64(max(n, 1))
}

// pendingPack is a built index being packed beside serving: the daemon
// keeps nothing of the vectors it generated but the index, so a clone of
// the index copies them into blocks of its own in leaf order (Own), and
// is put in the index's place whole once it is; the leaf scans then read
// memory laid out as a loaded snapshot's, and the generated vectors go.
// Packing before listening would add the copy to the start-up, so it runs
// beside serving, one shard after the other, which leaves a processor of
// two to the first replies; the snapshot's save follows it (startSave)
// and writes the packed index, so nothing holds the unpacked one once it
// is replaced, and the pages it and the generated vectors took are given
// back then. Its goroutine sets x, the index to save (x's packed copy,
// or x should a shard not pack), and the line run prints, and closes done.
type pendingPack struct {
	done chan struct{}
	x    *shard.Index[[]float64]
	line string
}

// startPack packs a clone of x on a goroutine of its own and, once every
// shard is packed, serves it through swap in x's place.
func startPack(x *shard.Index[[]float64], swap *serve.Swap[[]float64]) *pendingPack {
	p := &pendingPack{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		start := time.Now()
		packed := x.Clone()
		if !packed.Own() {
			p.x = x
			return
		}
		swap.Replace(packed)
		took := time.Since(start)
		p.x, x = packed, nil
		// Nothing holds the unpacked index, nor the generated vectors, but
		// the batches in flight on it: return their pages to the system
		// now rather than keep the process at its size with both.
		debug.FreeOSMemory()
		g := filterGrid(packed)
		p.line = fmt.Sprintf("mvpserve: vectors owned in leaf order in %v (%.1f B/item; index %.1f B/item)\n",
			took.Round(100*time.Microsecond), float64(g.OwnedBytes)/float64(max(packed.Len(), 1)), indexBytes(g, packed.Len()))
	}()
	return p
}

// wait blocks until the pack is done; there is nothing to wait for on a
// nil p.
func (p *pendingPack) wait() {
	if p != nil {
		<-p.done
	}
}

// saveSnapshot writes a built index into dir one blob at a time, so the
// save holds one P and leaves the rest to the queries beside it.
var saveSnapshot = func(x *shard.Index[[]float64], dir string, be shard.Backend[[]float64]) error {
	return x.SaveDirSerial(dir, be, codec.EncodeVector)
}

// pendingSave is a snapshot being written beside serving. Its goroutine
// sets err, or the line run prints, and then closes done.
type pendingSave struct {
	done chan struct{}
	err  error
	line string
}

// startSave writes the snapshot of the index pack leaves into dir on a
// goroutine of its own, once pack is done.
func startSave(pack *pendingPack, dir string, be shard.Backend[[]float64]) *pendingSave {
	p := &pendingSave{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		pack.wait()
		x := pack.x
		start := time.Now()
		if err := saveSnapshot(x, dir, be); err != nil {
			p.err = fmt.Errorf("saving snapshot to %s: %w", dir, err)
			return
		}
		took := time.Since(start)
		size, err := dirBytes(dir)
		if err != nil {
			p.err = fmt.Errorf("sizing snapshot in %s: %w", dir, err)
			return
		}
		p.line = fmt.Sprintf("mvpserve: snapshot saved to %s in %v (%.1f B/item on disk)\n",
			dir, took.Round(time.Millisecond), float64(size)/float64(max(x.Len(), 1)))
	}()
	return p
}

// wait blocks until the snapshot is committed and returns the save's
// error; there is nothing to wait for on a nil p.
func (p *pendingSave) wait() error {
	if p == nil {
		return nil
	}
	<-p.done
	return p.err
}

// filterGrid folds the shards' shapes (mvp.Stats) into what the start-up
// lines print: the arenas' bytes, the point arena's among them, the
// vectors the shards own, and the leaf items; the coarsest step any
// shard's leaf filter stores its distances on and the largest slack that
// costs a shard's windows — one
// far outlier coarsens its shard's whole grid; a slack of +Inf means a
// shard's leaf filter passes everything —
// and, once the cascade is armed, the same of its columns, the most pivots
// a shard pays per query, and the columns' bytes beside the leaf items
// they cover.
func filterGrid(x *shard.Index[[]float64]) (g mvp.Stats) {
	for i := 0; i < x.Shards(); i++ {
		s := x.Shard(i).Shape()
		g.FilterStep, g.FilterSlack = max(g.FilterStep, s.FilterStep), max(g.FilterSlack, s.FilterSlack)
		g.CascadeStep, g.CascadeSlack = max(g.CascadeStep, s.CascadeStep), max(g.CascadeSlack, s.CascadeSlack)
		g.CascadePivots = max(g.CascadePivots, s.CascadePivots)
		g.CascadeBytes, g.LeafItems = g.CascadeBytes+s.CascadeBytes, g.LeafItems+s.LeafItems
		g.NodeBytes, g.FilterBytes = g.NodeBytes+s.NodeBytes, g.FilterBytes+s.FilterBytes
		g.ItemBytes, g.OwnedBytes = g.ItemBytes+s.ItemBytes, g.OwnedBytes+s.OwnedBytes
	}
	return g
}

// dirBytes is the size of the files in dir: after SaveDir, the manifest
// and the blobs it names.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			size += info.Size()
		}
	}
	return size, nil
}

func hasManifest(dir string) bool {
	_, err := os.Stat(dir + string(os.PathSeparator) + "manifest.json")
	return err == nil
}
