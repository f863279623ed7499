package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mvptree/internal/index"
	"mvptree/internal/linear"
	"mvptree/internal/metric"
)

// FuzzRequestBody posts arbitrary bodies to /range and /knn of a
// 200-item server. Every answer is 200 or 4xx — never 5xx, never a panic
// — and every 200 to an exact request equals the linear scan over the
// same items: the same count and the same distances in order (a range
// answer's sorted). /healthz answers after every body.
func FuzzRequestBody(f *testing.F) {
	q := `[0.1,0.2,0.3,0.4,0.5,0.6]`
	for _, seed := range []string{
		`{"query":` + q + `,"r":0.4}`,
		`{"query":` + q + `,"k":5}`,
		`{"query":` + q + `,"k":1099511627776}`,
		`{"query":[1e200,1e200,1e200,1e200,1e200,1e200],"k":20}`,
		`{"query":[1e200,-1e200,1e200,-1e200,1e200,-1e200],"r":1e308}`,
		`{"query":[0.1,0.2],"r":0.4}`,
		`{"query":` + q + `,"r":0.4,"epsilon":-1}`,
		`{"query":` + q + `,"k":3,"budget":-5}`,
		`{"query":` + q + `,"k":3,"epsilon":0.5,"budget":40}`,
		`{"query":` + q + `,"r":0.`,
		`{"query":[0.1,0.2,0.3`,
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}

	tree, items := testIndex(f, 200, 71)
	scan := linear.New(items, metric.NewCounter(metric.L2))
	s := New[[]float64](tree, VectorCodec(testDim), Options{})
	defer s.Close()
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string, knn bool) {
		path := "/range"
		if knn {
			path = "/knn"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		hw := httptest.NewRecorder()
		h.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if hw.Code != http.StatusOK {
			t.Fatalf("/healthz after POST %s %.120q: status %d", path, body, hw.Code)
		}
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("POST %s %.120q: status %d: %s", path, body, w.Code, w.Body)
			}
			return
		}
		// Read the request as the server did: the first JSON value.
		var req queryRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("the server answered a body it cannot have decoded: %v", err)
		}
		if req.Epsilon != 0 || req.Budget != 0 {
			return // an approximate answer is not the scan's
		}
		point, err := VectorCodec(testDim).DecodeQuery(req.Query)
		if err != nil {
			t.Fatalf("the server answered a query it cannot have decoded: %v", err)
		}
		var got struct {
			Results   [][]float64 `json:"results"`
			Neighbors []struct {
				Dist float64 `json:"dist"`
			} `json:"neighbors"`
			Count int `json:"count"`
		}
		if err := json.NewDecoder(bytes.NewReader(w.Body.Bytes())).Decode(&got); err != nil {
			t.Fatalf("POST %s %.120q: a 200 that is not JSON: %v: %q", path, body, err, w.Body)
		}
		var have, want []float64
		if knn {
			for _, n := range got.Neighbors {
				have = append(have, n.Dist)
			}
			for _, n := range scan.Search(index.KNNQuery(point, *req.K)).Neighbors {
				want = append(want, n.Dist)
			}
		} else {
			for _, it := range got.Results {
				have = append(have, metric.L2(point, it))
			}
			for _, it := range scan.Search(index.RangeQuery(point, *req.R)).Items {
				want = append(want, metric.L2(point, it))
			}
			slices.Sort(have)
			slices.Sort(want)
		}
		if got.Count != len(want) || !slices.Equal(have, want) {
			t.Fatalf("POST %s %.120q: count %d, distances %v; the scan %v", path, body, got.Count, have, want)
		}
	})
}
