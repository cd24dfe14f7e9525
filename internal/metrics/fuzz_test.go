package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from seedSnapshots")

// seedSnapshots are FuzzDecodeSnapshot's seeds: a registry's /metrics body
// with every instrument kind and an exemplar, and the bodies one site could
// send that the decoder must survive — fewer exemplars than counts, more
// counts than buckets, a histogram sample without its histogram, a bounds
// list from before the one layout, and a histogram that claims more
// observations than its buckets hold.
func seedSnapshots(tb testing.TB) [][]byte {
	r := New()
	l := Labels{Site: "DB1", Alg: "BL"}
	r.Counter("requests_total", l).Add(7)
	r.Gauge("queries_inflight", l).Set(2)
	h := r.Histogram("request_latency_us", l)
	h.Observe(40)
	h.ObserveWithExemplar(3000, "q1")
	h.Observe(1e9)
	body, err := json.Marshal(r.Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		body,
		[]byte(`{"samples":[{"name":"h","labels":{"site":"DB1"},"kind":"histogram","histogram":{"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":10,"count":1,"exemplars":[{"trace_id":"q1","value":10}]}}]}`),
		[]byte(`{"samples":[{"name":"h","labels":{},"kind":"histogram","histogram":{"counts":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19],"sum":1,"count":190}}]}`),
		[]byte(`{"samples":[{"name":"h","labels":{"alg":"CA"},"kind":"histogram"},{"name":"c","labels":{},"kind":"counter","value":-3}]}`),
		[]byte(`{"samples":[{"name":"h","labels":{},"kind":"histogram","histogram":{"bounds":[50,100],"counts":[1,1,1],"sum":3,"count":3}}]}`),
		[]byte(`{"samples":[{"name":"h","labels":{},"kind":"histogram","histogram":{"counts":[-1],"sum":-5,"count":9000000000000000000}}]}`),
	}
}

// FuzzDecodeSnapshot: whatever a site's /metrics answers, decoding it with
// encoding/json and then differencing, estimating and rendering it never
// panics, and a body the decoder accepts re-encodes to a fixed point — what
// a reader of the surface decodes is what it would serve again. Seeds:
// testdata/fuzz, pinned to seedSnapshots by TestFuzzCorpusIsCurrent.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		once, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		var again Snapshot
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("decoding %s: %v", once, err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once, twice)
		}

		for _, prev := range []Snapshot{{}, s} {
			s.Delta(prev)
			prev.Delta(s)
		}
		for _, smp := range s.Samples {
			for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
				smp.Hist.Quantile(q)
			}
			smp.Hist.Mean()
			s.HistTotals(smp.Name)
			s.Sum(smp.Name)
		}
		_ = s.Text()
	})
}

// TestFuzzCorpusIsCurrent pins the committed seed corpus to seedSnapshots
// (go test ./internal/metrics -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	seeds := seedSnapshots(t)
	for i, seed := range seeds {
		file := filepath.Join(dir, fmt.Sprintf("seed-%d", i+1))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Errorf("%s: seed %d is not current (%v; run with -update-corpus)", file, i+1, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(seeds) {
		t.Errorf("%s holds %d seeds, seedSnapshots has %d", dir, len(files), len(seeds))
	}
}
