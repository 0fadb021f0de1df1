package server_test

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/metrics"
	"flit/internal/server"
	"flit/internal/workload"
)

// TestMetricsUnderConcurrency is the observability race battery: while
// pipelined batches commit on several connections, one goroutine
// hammers STATS over the wire and another scrapes the Prometheus page.
// It asserts the monitoring invariants — counters are monotone across
// polls, every scrape parses, and once traffic quiesces the histogram
// counts equal the op counts — under -race, where any unsynchronized
// read of hot-path state would be reported.
func TestMetricsUnderConcurrency(t *testing.T) {
	srv := server.New(newTestStore(t), server.Options{Metrics: true})
	defer srv.Close()
	dial := func() *client.Conn {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return client.New(cc)
	}

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial()
			defer c.Close()
			keyBuf := make([]byte, 0, 32)
			var req server.Request
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A pipelined window mixing every store opcode.
				for j := uint64(0); j < 8; j++ {
					k := (i*8 + j) % 512
					keyBuf = workload.AppendKey(keyBuf[:0], k)
					switch j % 4 {
					case 0, 1:
						req = server.Request{Op: server.OpPut, Key: keyBuf, Val: k}
					case 2:
						req = server.Request{Op: server.OpGet, Key: keyBuf}
					default:
						req = server.Request{Op: server.OpContains, Key: keyBuf}
					}
					c.Send(&req)
				}
				if err := c.Flush(); err != nil {
					errs[w] = err
					return
				}
				for c.Pending() > 0 {
					if _, err := c.Recv(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}

	// STATS poller: counters must be monotone poll over poll, and the
	// v2 block must be present and internally consistent.
	var pollErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := dial()
		defer c.Close()
		var last server.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := c.Stats()
			if err != nil {
				pollErr = err
				return
			}
			if st.Version != server.StatsVersion {
				pollErr = fmt.Errorf("stats version %d, want %d", st.Version, server.StatsVersion)
				return
			}
			if st.Metrics == nil {
				pollErr = fmt.Errorf("metrics-enabled server returned no v2 block")
				return
			}
			if st.OpsServed < last.OpsServed || st.Batches < last.Batches ||
				st.PWBs < last.PWBs || st.PFences < last.PFences {
				pollErr = fmt.Errorf("counters went backwards: %+v after %+v", st, last)
				return
			}
			m, lm := st.Metrics, last.Metrics
			if lm != nil && (m.Gets < lm.Gets || m.Puts < lm.Puts || m.Contains < lm.Contains) {
				pollErr = fmt.Errorf("op counters went backwards: %+v after %+v", m, lm)
				return
			}
			last = st
		}
	}()

	// Scraper: every exposition page rendered mid-traffic must parse.
	var scrapeErr error
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf.Reset()
			if err := srv.WriteMetrics(&buf); err != nil {
				scrapeErr = err
				return
			}
			if _, err := metrics.ValidateExposition(buf.Bytes()); err != nil {
				scrapeErr = fmt.Errorf("scrape %d: %v\npage:\n%s", scrapes, err, buf.String())
				return
			}
			scrapes++
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if pollErr != nil {
		t.Fatalf("stats poller: %v", pollErr)
	}
	if scrapeErr != nil {
		t.Fatalf("scraper: %v", scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("scraper never completed a scrape")
	}

	// Quiesced: histogram counts equal op counts equal the acked total.
	m := srv.Metrics()
	stats := srv.Stats()
	if stats.OpsServed == 0 {
		t.Fatal("no traffic reached the server")
	}
	if got := m.OpsTotal(); got != stats.OpsServed {
		t.Fatalf("striped op counters sum to %d, OpsServed = %d", got, stats.OpsServed)
	}
	var lat metrics.HistSnapshot
	m.LatSnapshot(&lat)
	if lat.Count != stats.OpsServed {
		t.Fatalf("latency histograms hold %d observations, OpsServed = %d", lat.Count, stats.OpsServed)
	}
	var bops metrics.HistSnapshot
	m.BatchOps.Read(&bops)
	if bops.Sum != stats.OpsServed {
		t.Fatalf("batch-ops histogram sums to %d ops, OpsServed = %d", bops.Sum, stats.OpsServed)
	}
	if bops.Count != stats.Batches {
		t.Fatalf("batch-ops histogram holds %d batches, Batches = %d", bops.Count, stats.Batches)
	}
	sm := stats.Metrics
	if sm.Gets == 0 || sm.Puts == 0 || sm.Contains == 0 {
		t.Fatalf("v2 op counters missing traffic: %+v", sm)
	}
	if sm.OpP99Ns < sm.OpP50Ns || sm.OpMaxNs < sm.OpP99Ns {
		t.Fatalf("v2 quantiles out of order: %+v", sm)
	}
}

// TestMetricsDisabled: without Options.Metrics the server must serve,
// report v2-less STATS, render a counters-only exposition page, and
// refuse to start a sampler.
func TestMetricsDisabled(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{})
	if _, err := c.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != server.StatsVersion || st.Metrics != nil {
		t.Fatalf("disabled metrics: v=%d metrics=%v", st.Version, st.Metrics)
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("counters-only page invalid: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "flit_op_seconds") {
		t.Fatal("histogram families on a metrics-disabled page")
	}
	if !strings.Contains(buf.String(), "flit_ops_served_total 1") {
		t.Fatalf("page missing op counter:\n%s", buf.String())
	}
	if ring, stopFn := srv.StartSampler(time.Millisecond, 8); ring != nil {
		stopFn()
		t.Fatal("sampler started without metrics")
	}
}

// TestElidedFencesReported: the dependency and group-commit fences a
// policy finds empty are not issued, but stay countable — STATS and the
// metrics page carry them beside the issued fences. A fresh-key Put's
// publishing CAS has the node's lines pending (its dependency fence is
// issued) and its own trailing fence empties the queue, so the batch's
// commit fence is elided; a Delete's mark and unlink CASes each open on
// an empty queue, and so does its commit.
func TestElidedFencesReported(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{})
	if _, err := c.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PFences != 2 || st.PFencesElided != 1 {
		t.Fatalf("after a fresh-key Put: pfences=%d pfences_elided=%d, want 2 / 1", st.PFences, st.PFencesElided)
	}
	if _, err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PFencesElided != 4 {
		t.Fatalf("after the Delete: pfences_elided=%d over the wire, want 4", st.PFencesElided)
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("page invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "flit_pfences_elided_total 4\n") {
		t.Fatalf("page missing the elided-fence counter:\n%s", buf.String())
	}
}

// TestMetricsHandler scrapes the HTTP endpoint end-to-end and checks
// content type and exposition validity.
func TestMetricsHandler(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{Metrics: true})
	for i := 0; i < 32; i++ {
		if _, err := c.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(srv.MetricsHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	stats, err := metrics.ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, buf.String())
	}
	if stats.Families < 10 {
		t.Fatalf("only %d families on a metrics-enabled page", stats.Families)
	}
	for _, want := range []string{
		"flit_ops_total{op=\"put\"} 32",
		"flit_op_seconds_bucket{op=\"put\",le=\"+Inf\"} 32",
		"flit_batch_ops_count 32", // depth-1 pipeline: one op per commit
		"flit_pipeline_depth_count 32",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSampler drives traffic past a running sampler and checks the
// ring fills with plausible interval samples.
func TestSampler(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{Metrics: true})
	ring, stopFn := srv.StartSampler(5*time.Millisecond, 16)
	if ring == nil {
		t.Fatal("sampler refused to start with metrics enabled")
	}
	defer stopFn()
	deadline := time.Now().Add(time.Second)
	for i := 0; ring.Len() < 3; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("ring only reached %d samples", ring.Len())
		}
		if _, err := c.Put([]byte(fmt.Sprintf("key-%d", i%64)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	stopFn()
	samples := ring.Snapshot(nil)
	if len(samples) < 3 {
		t.Fatalf("snapshot holds %d samples", len(samples))
	}
	var sawTraffic bool
	for i := 1; i < len(samples); i++ {
		if samples[i].Ops < samples[i-1].Ops {
			t.Fatalf("cumulative ops went backwards: %+v after %+v", samples[i], samples[i-1])
		}
		if samples[i].UnixNano <= samples[i-1].UnixNano {
			t.Fatalf("sample timestamps not increasing")
		}
		if samples[i].OpsPerSec > 0 {
			sawTraffic = true
			if samples[i].PWBsPerOp <= 0 || samples[i].PFencesPerOp <= 0 {
				t.Fatalf("interval with ops but no persistence cost: %+v", samples[i])
			}
		}
	}
	if !sawTraffic {
		t.Fatal("no sample observed a positive op rate")
	}
	last, ok := ring.Last()
	if !ok || last.Ops == 0 {
		t.Fatalf("last sample = %+v, %v", last, ok)
	}
}
