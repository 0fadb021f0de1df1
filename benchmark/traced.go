package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// measureTraced is the traced run: the per-layer metrics. It runs the
// workload twice at half its length, bare and then with spans, CPU
// time per segment and (net_*) the counting transport, so the tracing
// overhead is the difference of two like runs; then the layer ladder. The
// spans go to out.
func measureTraced(w io.Writer, sp *spec, sc scale, seed int64, tmp, out string) (report, error) {
	sc.rounds = max(sc.rounds/2, 2)
	header(w, sp, sc, seed)
	bare, err := runWorkload(sp, sc, seed, policy, tmp, nil)
	if err != nil {
		return report{}, err
	}
	tr := newTracer()
	traced, err := runWorkload(sp, sc, seed, policy, tmp, tr)
	if err != nil {
		return report{}, err
	}
	ns, err := runLadder(sp, sc, seed, tmp, tr)
	if err != nil {
		return report{}, err
	}
	vals, rows := layerValues(traced, bare, tr, ns)
	printValues(w, "per-layer", vals)
	printLadder(w, sp.name, rows, 1e9/bare.throughput())

	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return report{}, err
	}
	if err := tr.write(out); err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "  %d spans written to %s\n", len(tr.spans), out)
	return newReport(bare.attempted+traced.attempted, bare.failed()+traced.failed(), vals), nil
}
