package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"rxview"
)

// tracer is the traced run's timing middleware around server.NewHandler:
// it records a handler span for every request carrying a request id. Spans
// stay in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	spans map[uint64]span
}

type span struct{ start, end time.Time }

func newTracer() *tracer { return &tracer{spans: map[uint64]span{}} }

func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans[id] = span{start, end}
		t.mu.Unlock()
	})
}

// handlerSpan returns the handler span of request id.
func (t *tracer) handlerSpan(id uint64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[id]
	return s, ok
}

// spanRecord is one request's joined client and handler spans in the
// trace file, in nanoseconds from the window start. The handler span's
// parent is the client span of the same id.
type spanRecord struct {
	ID          uint64 `json:"id"`
	Kind        string `json:"kind"`
	Status      int    `json:"status"`
	ClientStart int64  `json:"client_start_ns"`
	ClientEnd   int64  `json:"client_end_ns"`
	Start       int64  `json:"handler_start_ns"`
	End         int64  `json:"handler_end_ns"`
}

// writeSpans writes the traced window's joined spans to path as JSON.
func writeSpans(path string, w window, t *tracer) error {
	recs := make([]spanRecord, 0, len(w.results))
	for _, r := range w.results {
		h, ok := t.handlerSpan(r.id)
		if !ok {
			continue
		}
		recs = append(recs, spanRecord{ID: r.id, Kind: r.o.kind, Status: r.status,
			ClientStart: int64(r.start.Sub(w.start)), ClientEnd: int64(r.end.Sub(w.start)),
			Start: int64(h.start.Sub(w.start)), End: int64(h.end.Sub(w.start))})
	}
	b, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Histogram families the layers already expose on /metrics.
var (
	hQueueWait = hist{name: "xview_engine_queue_wait_seconds"}
	hPublish   = hist{name: "xview_engine_publish_seconds"}
	hQuery     = hist{name: "xview_engine_query_seconds"}
	hStage     = hist{name: "xview_txn_stage_seconds"}
	hCommit    = hist{name: "xview_txn_commit_seconds"}
	hFsync     = hist{name: "xview_wal_fsync_seconds"}
	hCkpt      = hist{name: "xview_wal_checkpoint_seconds"}
)

func phase(name string) hist {
	return hist{name: "xview_pipeline_phase_seconds", labels: fmt.Sprintf("phase=%q", name)}
}

// phases are the paper's Fig. 11 split of one staged update, as the
// pipeline reports it per phase.
var phases = []struct{ layer, phase string }{
	{"core.validate", "validate"},
	{"xpath.eval", "eval"},
	{"viewupdate.xtodv", "xtodv"},
	{"viewupdate.dvtodr", "dvtodr"},
	{"relational.apply", "apply"},
	{"reach.maintain", "maintain"},
}

// share is one layer's time per operation, for the ranking.
type share struct {
	layer string
	ms    float64
}

// layerReport is the traced window's per-layer breakdown.
type layerReport struct {
	metrics    map[string]float64
	writeRank  []share // per acknowledged write unit
	readRank   []share // per read
	clientMSW  float64 // client-observed ms per write unit
	clientMSR  float64 // client-observed ms per read
	writeUnits int
	reads      int
}

// attribute splits the traced window: client and handler spans from the
// benchmark's own clocks, layer time from /metrics deltas over the same
// window (d), joined per request by id.
func attribute(w window, t *tracer, d series) layerReport {
	var (
		units, writeAttempts, reads                      int
		clientW, handlerW, clientR, handlerR, respBytesR float64
		loopback                                         float64
		joined                                           int
	)
	for _, r := range w.results {
		h, ok := t.handlerSpan(r.id)
		if !ok {
			continue
		}
		joined++
		c := ms(r.end.Sub(r.start))
		hs := ms(h.end.Sub(h.start))
		loopback += c - hs
		if r.o.kind == kindQuery {
			reads++
			clientR += c
			handlerR += hs
			respBytesR += float64(r.bytes)
			continue
		}
		writeAttempts++
		if r.acked {
			units++
		}
		clientW += c
		handlerW += hs
	}
	m := map[string]float64{
		"http.loopback_ms":           ratio(loopback, float64(joined)),
		"http.resp_bytes_per_read":   ratio(respBytesR, float64(reads)),
		"engine.queue_wait_ms":       d.meanMS(hQueueWait),
		"engine.run_updates":         ratio(d["xview_engine_updates_applied_total"], d["xview_engine_snapshot_swaps_total"]),
		"engine.publish_ms":          d.meanMS(hPublish),
		"engine.memo_hit_ratio":      ratio(d["xview_engine_memo_hits_total"], d["xview_engine_memo_hits_total"]+d["xview_engine_memo_misses_total"]),
		"engine.query_ms":            d.meanMS(hQuery),
		"engine.shed_frac":           ratio(d["xview_engine_writes_shed_total"], float64(writeAttempts)),
		"core.validate_ms":           d.meanMS(phase("validate")),
		"xpath.eval_ms":              d.meanMS(phase("eval")),
		"xpath.path_cache_hit_ratio": ratio(d["xview_path_cache_hits_total"], d["xview_path_cache_hits_total"]+d["xview_path_cache_misses_total"]),
		"viewupdate.xtodv_ms":        d.meanMS(phase("xtodv")),
		"viewupdate.dvtodr_ms":       d.meanMS(phase("dvtodr")),
		"relational.apply_ms":        d.meanMS(phase("apply")),
		"reach.maintain_ms":          d.meanMS(phase("maintain")),
		"core.txn_stage_ms":          d.meanMS(hStage),
		"core.txn_commit_ms":         d.meanMS(hCommit),
		"wal.fsync_ms":               d.meanMS(hFsync),
		"wal.fsyncs_per_write":       ratio(d["xview_wal_fsyncs_total"], float64(units)),
		"wal.records_per_append":     ratio(d["xview_wal_records_total"], d["xview_wal_appends_total"]),
		"wal.bytes_per_write":        ratio(d["xview_wal_appended_bytes_total"], float64(units)),
		"wal.checkpoint_ms":          d.meanMS(hCkpt),
		"wal.checkpoints":            d["xview_wal_checkpoints_total"],
	}

	// Write closure. Every write runs as a transaction: its stages (the
	// pipeline phases plus staging work of their own — the DAG journal, an
	// atomic group's copy of M) and its commit (the deferred maintenance
	// flush, the WAL append and fsync, a due checkpoint) happen between
	// the queue wait and the epoch publication. Whatever else the handler
	// span holds — JSON, routing, the apply loop's own work — is the
	// residual no layer reports.
	msum := func(h hist) float64 { return 1000 * d.sumSeconds(h) }
	txn := msum(hStage) + msum(hCommit) - msum(hFsync) - msum(hCkpt)
	layers := []share{
		{"engine.queue_wait", msum(hQueueWait)},
		{"engine.publish", msum(hPublish)},
		{"wal.fsync", msum(hFsync)},
		{"wal.checkpoint", msum(hCkpt)},
	}
	for _, p := range phases {
		s := msum(phase(p.phase))
		txn -= s
		layers = append(layers, share{p.layer, s})
	}
	layers = append(layers, share{"core.txn", txn})
	residual := handlerW
	for _, l := range layers {
		residual -= l.ms
	}
	layers = append(layers, share{"http", clientW - handlerW}, share{"http.residual", residual})
	rep := layerReport{metrics: m, writeUnits: units, reads: reads}
	for _, l := range layers {
		rep.writeRank = append(rep.writeRank, share{l.layer, ratio(l.ms, float64(units))})
	}
	m["http.residual_write_ms"] = ratio(residual, float64(units))
	m["trace.unattributed_frac"] = ratio(residual, clientW)
	rep.clientMSW = ratio(clientW, float64(units))

	queryS := 1000 * d.sumSeconds(hQuery)
	rep.readRank = []share{
		{"http", ratio(clientR-handlerR, float64(reads))},
		{"engine.query", ratio(queryS, float64(reads))},
		{"http.residual", ratio(handlerR-queryS, float64(reads))},
	}
	rep.clientMSR = ratio(clientR, float64(reads))
	sortShares(rep.writeRank)
	sortShares(rep.readRank)
	return rep
}

func sortShares(s []share) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].ms > s[j].ms })
}

// querySample bounds how many reader texts queryEvalMS times.
const querySample = 200

// queryEvalMS is the XPath layer of a read: the benchmark's own timing of
// rxview.Snapshot.Query over the reader's query texts on the served epoch,
// outside HTTP and the engine's result memo, with no other load. 0 when
// the workload has no reader.
func queryEvalMS(sn *rxview.Snapshot, conns []*conn) (float64, error) {
	var total time.Duration
	n := 0
	for _, c := range conns {
		rs, ok := c.stream.(*readStream)
		if !ok {
			continue
		}
		for _, o := range rs.texts[:min(len(rs.texts), querySample)] {
			t0 := time.Now()
			if _, err := sn.Query(context.Background(), o.path); err != nil {
				return 0, fmt.Errorf("timing %s: %w", o.path, err)
			}
			total += time.Since(t0)
			n++
		}
	}
	return ratio(ms(total), float64(n)), nil
}
