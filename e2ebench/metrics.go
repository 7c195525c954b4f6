package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// catalogEntry names one reported metric.
type catalogEntry struct {
	name, unit, better, about string
}

// endToEndCatalog is what a user of the server sees, from the untraced
// window. Every workload reports every entry. The closed-loop connections
// set a workload's pace: its writers on durable-1k, its reader on
// mixed-11k. Tails are printed per request kind (printKinds) but are not
// among these metrics: on a shared host whose CPU speed drifts, a run's
// tail moves two to four times as far as its throughput, well past any
// bound a regression check could use, whatever the percentile or slicing.
var endToEndCatalog = []catalogEntry{
	{"setup_s", "s", "lower", "median set-up: dataset + Open + serving, to the first answered request"},
	{"peak_rss_mb", "MB", "lower", "peak resident set of the whole process (VmHWM)"},
	{"ops_per_s", "1/s", "higher", "acknowledged closed-loop requests per second (a /tx counts once), median of the slices"},
	{"p50_ms", "ms", "lower", "closed-loop request latency, median of the slice medians"},
	{"write_p50_ms", "ms", "lower", "/update latency (open loop: from the due time), median of the slice medians"},
}

// perLayerCatalog is what the traced window splits a request into, per op.
// A layer a workload does not exercise reports 0.
var perLayerCatalog = []catalogEntry{
	{"client.gen_lag_ms", "ms", "lower", "how late the open-loop writer sent, mean"},
	{"http.loopback_ms", "ms", "lower", "client span minus handler span, mean"},
	{"http.resp_bytes_per_read", "bytes", "lower", "/query response body, mean"},
	{"http.residual_write_ms", "ms", "lower", "write handler span outside queue wait, transaction and publish; per unit"},
	{"engine.queue_wait_ms", "ms", "lower", "writer-queue wait per submission"},
	{"engine.run_updates", "count", "higher", "updates applied per published epoch (apply-loop run)"},
	{"engine.publish_ms", "ms", "lower", "epoch seal + swap per publication"},
	{"engine.memo_hit_ratio", "frac", "higher", "queries answered by the per-epoch result memo"},
	{"engine.query_ms", "ms", "lower", "query evaluation past the memo, mean"},
	{"engine.shed_frac", "frac", "lower", "writes refused by admission control"},
	{"core.validate_ms", "ms", "lower", "validate phase per update"},
	{"xpath.eval_ms", "ms", "lower", "XPath eval phase per update"},
	{"xpath.query_eval_ms", "ms", "lower", "rxview.Snapshot.Query over the reader's texts, no load, mean"},
	{"xpath.path_cache_hit_ratio", "frac", "higher", "compiled-path cache hits"},
	{"viewupdate.xtodv_ms", "ms", "lower", "ΔX→ΔV translation per update"},
	{"viewupdate.dvtodr_ms", "ms", "lower", "ΔV→ΔR translation per update"},
	{"relational.apply_ms", "ms", "lower", "executing ΔR and ΔV per update"},
	{"reach.maintain_ms", "ms", "lower", "∆(M,L) maintenance per update"},
	{"core.txn_stage_ms", "ms", "lower", "one staged update (full pipeline), mean"},
	{"core.txn_commit_ms", "ms", "lower", "transaction commit (flush, WAL, journal), mean"},
	{"wal.fsync_ms", "ms", "lower", "fsync of the active segment, mean"},
	{"wal.fsyncs_per_write", "count", "lower", "fsyncs per acknowledged write unit"},
	{"wal.records_per_append", "count", "higher", "commit records per WAL append"},
	{"wal.bytes_per_write", "bytes", "lower", "WAL bytes per acknowledged write unit"},
	{"wal.checkpoint_ms", "ms", "lower", "checkpoint sync+write+rotate, mean (serialization excluded)"},
	{"wal.checkpoints", "count", "lower", "checkpoints written in the window"},
	{"setup.dataset_s", "s", "lower", "rxview.NewSynthetic, median"},
	{"setup.open_s", "s", "lower", "rxview.Open, median"},
	{"setup.serve_s", "s", "lower", "server.New + NewHandler + listen to first answer, median"},
	{"setup.open_heap_mb", "MB", "lower", "live heap with the view served"},
	{"view.nodes", "count", "lower", "DAG nodes of the base view"},
	{"view.matrix_pairs", "count", "lower", "|M| of the base view"},
	{"trace.unattributed_frac", "frac", "lower", "client write time the named layers do not cover"},
	{"trace.overhead_frac", "frac", "lower", "throughput lost by tracing: 1 − traced/untraced closed-loop ops/s"},
}

// slices is how many equal parts the timed window is cut into. Rates and
// medians are the median over the parts, so a burst of outside load that
// slows one part does not move them.
const slices = 5

// parts splits the window's acknowledged requests into n equal stretches
// of time: the closed-loop latencies and the /update latencies of each.
func parts(w window, n int) (closed, writes [][]float64) {
	closed, writes = make([][]float64, n), make([][]float64, n)
	part := w.elapsed.Seconds() / float64(n)
	for _, x := range w.samples {
		if !x.acked {
			continue
		}
		k := min(int(float64(x.end)/part), n-1)
		lat := float64(x.latency)
		if !x.paced {
			closed[k] = append(closed[k], lat)
		}
		if kinds[x.kind] == kindUpdate {
			writes[k] = append(writes[k], lat)
		}
	}
	return closed, writes
}

// medianOfMedians is the median of the parts' medians.
func medianOfMedians(ps [][]float64) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, median(p))
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics of the untraced window.
func endToEnd(w window, times []setupTimes) (map[string]float64, error) {
	closed, writes := parts(w, slices)
	var rates []float64
	for _, p := range closed {
		rates = append(rates, float64(len(p))/(w.elapsed/slices).Seconds())
	}
	var setups []float64
	for _, t := range times {
		setups = append(setups, t.total().Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mb":  rss,
		"ops_per_s":    median(rates),
		"p50_ms":       medianOfMedians(closed),
		"write_p50_ms": medianOfMedians(writes),
	}, nil
}

// closedOpsPerSec is acknowledged closed-loop requests per second.
func closedOpsPerSec(w window) float64 {
	n := 0
	for _, x := range w.samples {
		if x.acked && !x.paced {
			n++
		}
	}
	return float64(n) / w.elapsed.Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
