package server_test

import (
	"bufio"
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
	"flit/internal/store"
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

	// Quiesced: histogram counts equal the acked total.
	m := srv.Metrics()
	stats := srv.Stats()
	if stats.OpsServed == 0 {
		t.Fatal("no traffic reached the server")
	}
	var lat metrics.HistSnapshot
	if !srv.OpLatency(&lat) {
		t.Fatal("OpLatency reports no histogram with metrics on")
	}
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
// report v2-less STATS, render a counters-only exposition page, and read
// no latency histogram.
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
	var lat metrics.HistSnapshot
	if srv.OpLatency(&lat) || lat.Count != 0 {
		t.Fatalf("OpLatency without metrics reported a histogram of %d observations", lat.Count)
	}
}

// TestElidedFencesReported: the dependency and group-commit fences a
// policy finds empty are not issued, but stay countable — STATS and the
// metrics page carry them beside the issued fences. A fresh-key Put's
// publishing CAS has the node's lines pending (its dependency fence is
// issued) and leaves its own line pending for the batch's commit fence;
// a Delete's mark CAS opens on an empty queue (the one elided fence), its
// unlink's dependency fence drains the mark, and the commit the unlink.
func TestElidedFencesReported(t *testing.T) {
	srv, c := pipeServer(t, newTestStore(t), server.Options{})
	if _, err := c.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PFences != 2 || st.PFencesElided != 0 {
		t.Fatalf("after a fresh-key Put: pfences=%d pfences_elided=%d, want 2 / 0", st.PFences, st.PFencesElided)
	}
	if _, err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PFencesElided != 1 {
		t.Fatalf("after the Delete: pfences_elided=%d over the wire, want 1", st.PFencesElided)
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("page invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "flit_pfences_elided_total 1\n") {
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

// TestStatsSince pins the one interval function: exact deltas and
// ratios, and a window with no ops gives 0 ratios, not NaN or +Inf.
func TestStatsSince(t *testing.T) {
	prev := server.Stats{OpsServed: 100, Batches: 10, PWBs: 50, PFences: 10, PFencesElided: 3, ShedBusy: 1, ShedDraining: 2}
	cur := server.Stats{OpsServed: 164, Batches: 12, PWBs: 82, PFences: 12, PFencesElided: 7, ShedBusy: 5, ShedDraining: 3}
	want := server.Interval{
		Ops: 64, Batches: 2, PWBs: 32, PFences: 2, PFencesElided: 4, Shed: 5,
		PWBsPerOp: 0.5, PFencesPerOp: 0.03125, OpsPerBatch: 32,
	}
	if got := cur.Since(prev); got != want {
		t.Fatalf("Since = %+v, want %+v", got, want)
	}
	// PWBs and a window moved, no op did (another Combined user's window).
	idle := prev
	idle.Batches, idle.PWBs = prev.Batches+1, prev.PWBs+3
	got := idle.Since(prev)
	for _, r := range []float64{got.PWBsPerOp, got.PFencesPerOp, got.OpsPerBatch} {
		if r != 0 {
			t.Fatalf("zero-op interval ratios = %+v, want 0", got)
		}
	}
	if got.Batches != 1 || got.PWBs != 3 {
		t.Fatalf("zero-op interval deltas = %+v, want 1 batch, 3 PWBs", got)
	}
}

// TestOpCountsAndOpenConns: the per-kind op counters are the one ack
// count, kept with metrics on and off (OpsServed is their sum), and the
// open-connection count behind MaxConns, STATS conns_open and
// flit_conns_open returns to 0 once served connections close and after
// a rejection at the cap.
func TestOpCountsAndOpenConns(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("metrics=%v", on), func(t *testing.T) {
			srv := server.New(newTestStore(t), server.Options{Metrics: on, MaxConns: 2})
			defer srv.Close()
			var conns []*client.Conn
			for w := 0; w < 2; w++ {
				cc, sc := net.Pipe()
				go srv.ServeConn(sc)
				c := client.New(cc)
				conns = append(conns, c)
				// One pipelined window of 3 Puts, 2 Gets, 1 Delete, 1 Contains.
				for i, op := range []byte{server.OpPut, server.OpPut, server.OpPut, server.OpGet, server.OpGet, server.OpDelete, server.OpContains} {
					c.Send(&server.Request{Op: op, Key: []byte(fmt.Sprintf("k%d-%d", w, i%3)), Val: 1})
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				for c.Pending() > 0 {
					if _, err := c.Recv(); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := srv.Stats()
			if st.ConnsOpen != 2 {
				t.Fatalf("conns_open = %d with two served connections, want 2", st.ConnsOpen)
			}
			var want [4]uint64
			want[store.OpGet], want[store.OpPut], want[store.OpDelete], want[store.OpContains] = 4, 6, 2, 2
			got := srv.OpCounts()
			if got != want {
				t.Fatalf("per-kind op counts = %v, want %v", got, want)
			}
			if st.OpsServed != 14 {
				t.Fatalf("OpsServed = %d, want 14: the sum of the per-kind counts", st.OpsServed)
			}
			if m := st.Metrics; on && (m.Gets != 4 || m.Puts != 6 || m.Deletes != 2 || m.Contains != 2) {
				t.Fatalf("STATS v2 op counts = %+v, want 4/6/2/2", m)
			}

			// A third connection is over the cap: one BUSY frame, then EOF.
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			var resp server.Response
			if err := server.ReadResponse(bufio.NewReader(cc), 0, &resp); err != nil || resp.Status != server.StatusBusy {
				t.Fatalf("over-cap connection: status %d, %v; want BUSY", resp.Status, err)
			}
			cc.Close()
			waitConnsOpen(t, srv, 2)
			for _, c := range conns {
				c.Close()
			}
			waitConnsOpen(t, srv, 0)
			if st := srv.Stats(); st.ConnsRejected != 1 || st.OpsServed != 14 {
				t.Fatalf("after close: conns_rejected=%d ops_served=%d, want 1 / 14", st.ConnsRejected, st.OpsServed)
			}
			var buf bytes.Buffer
			if err := srv.WriteMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			if gauge := strings.Contains(buf.String(), "\nflit_conns_open 0\n"); gauge != on {
				t.Fatalf("flit_conns_open 0 on the page = %v with metrics=%v:\n%s", gauge, on, buf.String())
			}
		})
	}
}

// waitConnsOpen polls STATS until conns_open reads want: a handler
// leaves the count on its way out, after its client has hung up.
func waitConnsOpen(t *testing.T, srv *server.Server, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := srv.Stats().ConnsOpen
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conns_open = %d, want %d", got, want)
		}
	}
}
