package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/pkg/hsmodel"
)

// TestMetricsScrapeDuringPredictLoad hammers /v2/models/default/predict from
// 32 concurrent clients while the main goroutine scrapes /metrics in a tight
// loop. Under -race this pins the audited read-path contract: histogram
// scrapes are atomic loads against concurrent observations, and writeTo
// copies the requests map under the mutex before rendering, so a scrape
// never walks a map another request is incrementing. The final scrape must
// also account for every predict exactly once.
func TestMetricsScrapeDuringPredictLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, valid := testData(t)
	v := valid[0]

	req := hsmodel.PredictRequest{X: v.X[:]}
	hw := v.HW
	req.Config = &hw
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 32
	const perClient = 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v2/models/default/predict", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		return string(body)
	}

	loading := true
	for loading {
		select {
		case <-done:
			loading = false
		default:
		}
		body := scrape()
		if !strings.Contains(body, `hsserve_registry_model_trained{model="default"} 1`) {
			t.Fatal("scrape under load is missing the trained gauge")
		}
	}

	// observeRequest runs after the handler returns, so the last increments
	// can trail the clients' view of completion; give them a moment.
	want := fmt.Sprintf(`hsserve_requests_total{model="default",endpoint="v2_predict",code="200"} %d`, clients*perClient)
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := scrape()
		if strings.Contains(body, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("final scrape never showed %q; last scrape:\n%s", want, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotVersionUnderConcurrentRetrain publishes on the default entry's
// trainer from two Train loops and an Adopt loop while the main goroutine
// scrapes /metrics in a tight loop. Under -race this pins the publish-point
// contract: every scrape parses a default-entry
// hsserve_registry_model_snapshot_version no lower than the one before, and
// once the publishers stop the version is exactly one (the bootstrap train)
// plus the number of successful publishes — publications that land between
// two scrapes are each counted, and concurrent publishers never share a
// generation.
func TestSnapshotVersionUnderConcurrentRetrain(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tr.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	var alts [2]*core.Snapshot
	for i := range alts {
		snap, err := core.LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		alts[i] = snap
	}

	var published atomic.Uint64
	var updaters sync.WaitGroup
	for g := 0; g < 2; g++ {
		updaters.Add(1)
		go func() {
			defer updaters.Done()
			for i := 0; i < 3; i++ {
				if err := tr.Train(context.Background()); err != nil {
					t.Errorf("update: %v", err)
					continue
				}
				published.Add(1)
			}
		}()
	}
	updating := make(chan struct{})
	go func() { updaters.Wait(); close(updating) }()
	adopted := make(chan struct{})
	go func() {
		defer close(adopted)
		for i := 0; ; i++ {
			select {
			case <-updating:
				return
			default:
			}
			tr.Adopt(alts[i%2])
			published.Add(1)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	version := func() uint64 {
		_, body := getBody(t, ts.URL+"/metrics")
		v, ok := metricUint(string(body), `hsserve_registry_model_snapshot_version{model="default"}`)
		if !ok {
			t.Fatalf("scrape has no default snapshot version:\n%s", body)
		}
		return v
	}
	last, scrapes := version(), 1
	for running := true; running; scrapes++ {
		select {
		case <-adopted:
			running = false
		default:
		}
		v := version()
		if v < last {
			t.Fatalf("scrape %d: version went back from %v to %v", scrapes, last, v)
		}
		last = v
	}
	if want := 1 + published.Load(); last != want {
		t.Fatalf("final version %v after %d publishes, want %v", last, published.Load(), want)
	}
	t.Logf("%d publishes over %d scrapes", published.Load(), scrapes)
}
