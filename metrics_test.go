package mvptree

import (
	"testing"

	"mvptree/internal/metric"
	"mvptree/internal/pgm"
)

// TestFacadeMetricsCarryInternalKernels: every built-in wrapper is its
// own code pointer, so it has to take over its internal twin's kernel
// record (metric.Alias, one line per wrapper in metrics.go). A missing
// line is silent (the Counter falls back to the exact kernel in a
// loop), hence the table.
func TestFacadeMetricsCarryInternalKernels(t *testing.T) {
	sameKernels(t, "L1", L1, metric.L1)
	sameKernels(t, "L2", L2, metric.L2)
	sameKernels(t, "LInf", LInf, metric.LInf)
	sameKernels(t, "Canberra", Canberra, metric.Canberra)
	sameKernels(t, "Angular", Angular, metric.Angular)
	sameKernels(t, "Cosine", Cosine, metric.Cosine)
	sameKernels(t, "EditDistance", EditDistance, metric.Edit)
	sameKernels(t, "HammingDistance", HammingDistance, metric.Hamming)
	sameKernels(t, "Jaccard", Jaccard, metric.Jaccard)
	sameKernels(t, "ImageL1", ImageL1, pgm.L1)
	sameKernels(t, "ImageL2", ImageL2, pgm.L2)
}

func sameKernels[T any](t *testing.T, name string, facade, twin DistanceFunc[T]) {
	t.Helper()
	f, w := metric.NewCounter(facade), metric.NewCounter(twin)
	if got, want := f.Bounded() != nil, w.Bounded() != nil; got != want {
		t.Errorf("%s: Bounded() != nil is %v, internal twin %v", name, got, want)
	}
	if got, want := f.QuantKind(), w.QuantKind(); got != want {
		t.Errorf("%s: QuantKind() = %v, internal twin %v", name, got, want)
	}
	if got, want := f.Row() != nil, w.Row() != nil; got != want {
		t.Errorf("%s: Row() != nil is %v, internal twin %v", name, got, want)
	}
}
