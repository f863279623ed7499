// Command serveload is an open-loop load generator for mvpserve: it
// fires range/kNN queries at a Poisson arrival rate — arrivals are
// scheduled on an absolute clock, independent of response times, so a
// slow server cannot slow the offered load down and hide its own
// latency (no coordinated omission) — and reports latency percentiles
// measured from each request's *scheduled* arrival time.
//
// Usage:
//
//	serveload -addr 127.0.0.1:8080 -rate 500 -duration 10s -dim 20 \
//	          -r 0.4 -k 5 -knnfrac 0.3 -out load.json
//
// The report counts 503 rejections (the server's bounded-admission
// backpressure) separately from transport errors: a loaded server that
// sheds cleanly shows rejected > 0 with errors == 0 and tight
// percentiles for what it did admit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvptree/internal/dataset"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	status  int
	err     bool
	knn     bool
}

// LatencySummary is the percentile block of the report, in
// milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return LatencySummary{
		Count:  int64(len(lat)),
		MeanMs: ms(sum / time.Duration(len(lat))),
		P50Ms:  ms(pct(0.50)),
		P90Ms:  ms(pct(0.90)),
		P99Ms:  ms(pct(0.99)),
		MaxMs:  ms(lat[len(lat)-1]),
	}
}

// Report is the JSON document serveload prints (and -out writes).
type Report struct {
	Target      string  `json:"target"`
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"`
	Dim         int     `json:"dim"`
	Radius      float64 `json:"radius"`
	K           int     `json:"k"`
	KNNFrac     float64 `json:"knn_frac"`

	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Rejected    int64   `json:"rejected_503"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed_client_side"`
	AchievedRPS float64 `json:"achieved_rps"`

	Latency      LatencySummary `json:"latency"`
	RangeLatency LatencySummary `json:"range_latency"`
	KNNLatency   LatencySummary `json:"knn_latency"`
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "mvpserve address (host:port or http:// URL)")
		rate        = fs.Float64("rate", 500, "offered load: mean arrivals per second (Poisson)")
		duration    = fs.Duration("duration", 10*time.Second, "test length")
		dim         = fs.Int("dim", 20, "query vector dimensionality")
		radius      = fs.Float64("r", 0.4, "range query radius")
		k           = fs.Int("k", 5, "kNN neighbor count")
		knnFrac     = fs.Float64("knnfrac", 0.3, "fraction of arrivals issued as kNN queries")
		epsilon     = fs.Float64("epsilon", 0, "approximation slack ε sent with every query (0 = exact)")
		budget      = fs.Int64("budget", 0, "per-query distance budget sent with every query (0 = unlimited)")
		seed        = fs.Uint64("seed", 7, "query-stream seed")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		maxInFlight = fs.Int("maxinflight", 4096, "client-side cap on concurrent requests; arrivals beyond it are shed and counted")
		outFile     = fs.String("out", "", "write the JSON report to this file as well as stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// !(x > 0) also rejects NaN, which every comparison fails.
	switch {
	case !(*rate > 0) || math.IsInf(*rate, 1):
		return fmt.Errorf("-rate must be finite and positive, got %v", *rate)
	case *duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	case *dim < 1:
		return fmt.Errorf("-dim must be at least 1, got %d", *dim)
	case !(*knnFrac >= 0 && *knnFrac <= 1):
		return fmt.Errorf("-knnfrac must be in [0, 1], got %v", *knnFrac)
	case *maxInFlight < 1:
		return fmt.Errorf("-maxinflight must be at least 1, got %d", *maxInFlight)
	// The daemon answers 400 to every query of the first two kinds; a
	// JSON body cannot carry a NaN or an infinity at all.
	case *k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", *k)
	case !(*radius >= 0) || math.IsInf(*radius, 1):
		return fmt.Errorf("-r must be finite and not negative, got %v", *radius)
	case !(*epsilon >= 0) || math.IsInf(*epsilon, 1):
		return fmt.Errorf("-epsilon must be finite and not negative, got %v", *epsilon)
	case *budget < 0:
		return fmt.Errorf("-budget must not be negative, got %d", *budget)
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *maxInFlight,
			MaxIdleConnsPerHost: *maxInFlight,
		},
	}

	rng := rand.New(rand.NewPCG(*seed, 0))
	// Pre-generate a query pool and pre-marshal the bodies: the hot
	// loop should schedule and fire, not allocate.
	const poolSize = 256
	pool := dataset.UniformVectors(rng, poolSize, *dim)
	rangeBodies := make([][]byte, poolSize)
	knnBodies := make([][]byte, poolSize)
	for i, q := range pool {
		rangeBody := map[string]any{"query": q, "r": *radius}
		knnBody := map[string]any{"query": q, "k": *k}
		if *epsilon > 0 {
			rangeBody["epsilon"], knnBody["epsilon"] = *epsilon, *epsilon
		}
		if *budget > 0 {
			rangeBody["budget"], knnBody["budget"] = *budget, *budget
		}
		rb, err := json.Marshal(rangeBody)
		if err != nil {
			return err
		}
		kb, err := json.Marshal(knnBody)
		if err != nil {
			return err
		}
		rangeBodies[i], knnBodies[i] = rb, kb
	}

	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		sent     int64
		shed     int64
	)
	samples := make(chan sample, 65536)

	fire := func(scheduled time.Time, i int, knn bool) {
		defer wg.Done()
		defer inFlight.Add(-1)
		url, body := base+"/range", rangeBodies[i]
		if knn {
			url, body = base+"/knn", knnBodies[i]
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		s := sample{latency: time.Since(scheduled), knn: knn}
		if err != nil {
			s.err = true
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.status = resp.StatusCode
		}
		samples <- s
	}

	// Open loop: the i-th arrival happens at start + Σ exponential
	// gaps, slept-to on the absolute clock.
	start := time.Now()
	deadline := start.Add(*duration)
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		sent++
		if inFlight.Load() >= int64(*maxInFlight) {
			shed++
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go fire(next, int(rng.Uint64N(poolSize)), rng.Float64() < *knnFrac)
	}
	go func() {
		wg.Wait()
		close(samples)
	}()

	rep := Report{
		Target:      base,
		OfferedRPS:  *rate,
		DurationSec: duration.Seconds(),
		Dim:         *dim,
		Radius:      *radius,
		K:           *k,
		KNNFrac:     *knnFrac,
		Sent:        sent,
		Shed:        shed,
	}
	var all, rangeLat, knnLat []time.Duration
	for s := range samples {
		switch {
		case s.err:
			rep.Errors++
		case s.status == http.StatusOK:
			rep.OK++
			all = append(all, s.latency)
			if s.knn {
				knnLat = append(knnLat, s.latency)
			} else {
				rangeLat = append(rangeLat, s.latency)
			}
		case s.status == http.StatusServiceUnavailable:
			rep.Rejected++
		default:
			rep.Errors++
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.OK) / elapsed
	}
	rep.Latency = summarize(all)
	rep.RangeLatency = summarize(rangeLat)
	rep.KNNLatency = summarize(knnLat)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if _, err := out.Write(raw); err != nil {
		return err
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
