package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mvptree/internal/dataset"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
	"mvptree/internal/serve"
)

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.Count != 0 || s.P99Ms != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(lat), func(i, j int) { lat[i], lat[j] = lat[j], lat[i] })
	s := summarize(lat)
	if s.Count != 100 || s.P50Ms != 50 || s.P90Ms != 90 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Fatalf("summary: %+v", s)
	}
}

func TestLoadAgainstLiveServer(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewPCG(11, 0))
	items := dataset.UniformVectors(rng, 1000, dim)
	tree, err := mvp.New(items, metric.NewCounter(metric.L2), mvp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New[[]float64](tree, serve.VectorCodec(dim), serve.Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	outFile := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err = run(&buf, []string{
		"-addr", ts.URL,
		"-rate", "400", "-duration", "500ms",
		"-dim", "8", "-r", "0.6", "-k", "3", "-knnfrac", "0.5",
		"-out", outFile,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, raw)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no traffic recorded: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors against a healthy server: %+v", rep.Errors, rep)
	}
	if rep.OK+rep.Rejected+rep.Shed != rep.Sent {
		t.Fatalf("accounting mismatch: ok %d + rejected %d + shed %d != sent %d",
			rep.OK, rep.Rejected, rep.Shed, rep.Sent)
	}
	if rep.Latency.Count != rep.OK || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("latency summary inconsistent: %+v", rep.Latency)
	}
	if rep.RangeLatency.Count+rep.KNNLatency.Count != rep.Latency.Count {
		t.Fatalf("per-endpoint counts don't add up: %+v", rep)
	}
	if !bytes.Equal(bytes.TrimSpace(buf.Bytes()), bytes.TrimSpace(raw)) {
		t.Fatal("stdout report differs from -out file")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "0"},
		{"-rate", "Inf"},
		{"-rate", "NaN"},
		{"-duration", "-1s"},
		{"-dim", "0"},
		{"-dim", "-1"},
		{"-knnfrac", "-0.1"},
		{"-knnfrac", "1.5"},
		{"-knnfrac", "NaN"},
		{"-maxinflight", "0"},
		{"-k", "0"},
		{"-k", "-3"},
		{"-r", "-0.1"},
		{"-r", "NaN"},
		{"-r", "Inf"},
		{"-epsilon", "-0.5"},
		{"-epsilon", "NaN"},
		{"-epsilon", "Inf"},
		{"-budget", "-1"},
	} {
		if err := run(&bytes.Buffer{}, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
