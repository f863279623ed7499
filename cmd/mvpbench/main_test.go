package main

import (
	"strings"
	"testing"
)

// TestRunQuickExperiments runs every entry of the experiments table at a
// tiny scale through the real CLI path.
func TestRunQuickExperiments(t *testing.T) {
	for _, e := range table {
		var sb strings.Builder
		err := run(&sb, []string{
			"-experiment", e.id, "-quick",
			"-n", "800", "-queries", "5", "-seeds", "1", "-pairs", "20000",
			"-imgcount", "60", "-imgdim", "16",
		})
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		out := sb.String()
		if !strings.HasPrefix(out, "== "+e.desc+" ==\n") || !strings.Contains(out, "# "+e.id+" completed in") {
			t.Errorf("%s: output missing frame:\n%s", e.id, out)
		}
		if e.id == "fig8" && !strings.Contains(out, "mvpt(3,80)") {
			t.Errorf("fig8 output missing structure column:\n%s", out)
		}
	}
}

// TestRunRejectsUnknownExperiment: an unknown id — a typo, or one of the
// serving drivers the benchmark ledger replaced — fails before anything
// runs, naming the valid ids.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, arg := range []string{"fig99", "querybench", "fig4,shardbench"} {
		var sb strings.Builder
		err := run(&sb, []string{"-experiment", arg, "-quick", "-n", "300", "-pairs", "1000"})
		if err == nil {
			t.Errorf("-experiment %s accepted", arg)
			continue
		}
		for _, e := range table {
			if !strings.Contains(err.Error(), e.id) {
				t.Errorf("-experiment %s: error does not name valid id %q: %v", arg, e.id, err)
			}
		}
		if sb.Len() != 0 {
			t.Errorf("-experiment %s: ran before rejecting:\n%s", arg, sb.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"}, {"-queryjson", "x.json"}, {"-buildjson", "x.json"}, {"-shards", "2"},
		{"-n", "-5"}, {"-dim", "-1"}, {"-queries", "-3"}, {"-seeds", "-1"},
		{"-imgcount", "-1"}, {"-imgdim", "-1"}, {"-pairs", "-1"},
		{"-workers", "-1"}, {"-buildworkers", "-1"},
	} {
		var sb strings.Builder
		// The row's flags come last, so they override the small scale.
		base := []string{"-experiment", "fig4", "-quick", "-n", "300", "-pairs", "1000"}
		if err := run(&sb, append(base, args...)); err == nil {
			t.Errorf("flag %s accepted", args[0])
		}
	}
}

// TestDescribeCoversAllIDs: every table entry is complete and no id is
// listed twice.
func TestDescribeCoversAllIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range table {
		if e.id == "" || e.desc == "" || e.desc == e.id || e.run == nil {
			t.Errorf("incomplete table entry %+v", e)
		}
		if seen[e.id] {
			t.Errorf("id %q listed twice", e.id)
		}
		seen[e.id] = true
	}
}

func TestCSVOutput(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-experiment", "fig8", "-csv", "-quick",
		"-n", "500", "-queries", "3", "-seeds", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "r,") {
		t.Errorf("CSV output missing header:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Errorf("CSV output contains human framing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + 5 radii
		t.Errorf("CSV has %d lines:\n%s", len(lines), out)
	}
	sb.Reset()
	if err := run(&sb, []string{"-experiment", "fig4", "-csv", "-quick", "-n", "300", "-pairs", "5000"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "bucket,count\n") {
		t.Errorf("histogram CSV:\n%s", sb.String())
	}
}

// TestWorkersFlagPreservesCounts runs the same seeded experiment with
// -workers 1 and -workers 8 and requires byte-identical CSV tables:
// query parallelism must never change the reported distance counts.
func TestWorkersFlagPreservesCounts(t *testing.T) {
	runCSV := func(workers string) string {
		var sb strings.Builder
		err := run(&sb, []string{
			"-experiment", "fig8", "-csv", "-quick",
			"-n", "600", "-queries", "4", "-seeds", "2",
			"-workers", workers,
		})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return sb.String()
	}
	seq := runCSV("1")
	par := runCSV("8")
	if seq != par {
		t.Errorf("-workers changed the measured distance counts:\nworkers=1:\n%s\nworkers=8:\n%s", seq, par)
	}
}
