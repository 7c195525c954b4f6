package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

const scrapeBefore = `# HELP xview_pipeline_phase_seconds Time per update-pipeline phase.
# TYPE xview_pipeline_phase_seconds histogram
xview_pipeline_phase_seconds_bucket{phase="eval",le="0.001"} 1
xview_pipeline_phase_seconds_bucket{phase="eval",le="+Inf"} 2
xview_pipeline_phase_seconds_sum{phase="eval"} 0.004
xview_pipeline_phase_seconds_count{phase="eval"} 2
xview_pipeline_phase_seconds_sum{phase="maintain"} 0.5
xview_pipeline_phase_seconds_count{phase="maintain"} 10
# HELP xview_engine_memo_hits_total Queries served from the memo.
# TYPE xview_engine_memo_hits_total counter
xview_engine_memo_hits_total 5
`

const scrapeAfter = `# HELP xview_pipeline_phase_seconds Time per update-pipeline phase.
# TYPE xview_pipeline_phase_seconds histogram
xview_pipeline_phase_seconds_bucket{phase="eval",le="0.001"} 1
xview_pipeline_phase_seconds_bucket{phase="eval",le="+Inf"} 6
xview_pipeline_phase_seconds_sum{phase="eval"} 0.016
xview_pipeline_phase_seconds_count{phase="eval"} 6
xview_pipeline_phase_seconds_sum{phase="maintain"} 0.5
xview_pipeline_phase_seconds_count{phase="maintain"} 10
# HELP xview_engine_memo_hits_total Queries served from the memo.
# TYPE xview_engine_memo_hits_total counter
xview_engine_memo_hits_total 8
# HELP xview_wal_fsyncs_total fsyncs issued.
# TYPE xview_wal_fsyncs_total counter
xview_wal_fsyncs_total 3
`

func mustScrape(t *testing.T, text string) series {
	t.Helper()
	s, err := parseScrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScrapeDelta(t *testing.T) {
	d := mustScrape(t, scrapeAfter).delta(mustScrape(t, scrapeBefore))
	eval := phase("eval")
	if got := d.count(eval); got != 4 {
		t.Errorf("eval count delta = %g, want 4", got)
	}
	// 12 ms over 4 observations.
	if got := d.meanMS(eval); math.Abs(got-3) > 1e-9 {
		t.Errorf("eval mean = %g ms, want 3", got)
	}
	// An idle layer reports 0, not NaN.
	if got := d.meanMS(phase("maintain")); got != 0 {
		t.Errorf("idle maintain mean = %g, want 0", got)
	}
	if got := d["xview_engine_memo_hits_total"]; got != 3 {
		t.Errorf("memo hits delta = %g, want 3", got)
	}
	// A family that registered during the window counts from zero.
	if got := d["xview_wal_fsyncs_total"]; got != 3 {
		t.Errorf("new family delta = %g, want 3", got)
	}
	for k := range d {
		if strings.Contains(k, "_bucket") {
			t.Errorf("bucket series %s kept", k)
		}
	}
}

func TestScrapeRejectsMalformed(t *testing.T) {
	if _, err := parseScrape(strings.NewReader("xview_orphan_total 1\n")); err == nil {
		t.Error("a sample without a TYPE line parsed")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		kind, body string
		acked      bool
		count      int
		err        bool
	}{
		{kindUpdate, `{"generation":3,"report":{"applied":true}}`, true, 0, false},
		{kindUpdate, `{"generation":3,"report":{"applied":false}}`, false, 0, false},
		{kindUpdate, `{"generation":3}`, false, 0, true},
		{kindTx, `{"generation":4,"reports":[{"applied":true},{"applied":true}]}`, true, 0, false},
		{kindTx, `{"generation":4,"reports":[{"applied":true},{"applied":false}]}`, false, 0, false},
		{kindTx, `{"generation":4,"reports":[]}`, false, 0, false},
		{kindQuery, `{"generation":1,"count":2,"nodes":[]}`, true, 2, false},
		{kindQuery, `{"generation":1}`, false, 0, true},
	} {
		acked, count, err := verdict(c.kind, []byte(c.body))
		if acked != c.acked || count != c.count || (err != nil) != c.err {
			t.Errorf("verdict(%s, %s) = %v, %d, %v", c.kind, c.body, acked, count, err)
		}
	}
}

// The write closure: what the handler span holds beyond queue wait, the
// transaction and publication is the residual, and the residual's share of
// client time is the unattributed fraction.
func TestAttributeClosure(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	tr := newTracer()
	w := window{start: t0}
	for i, id := range []uint64{1, 2} {
		base := float64(10 * i)
		w.results = append(w.results, result{o: op{kind: kindUpdate}, acked: true, id: id,
			start: at(base), end: at(base + 5)}) // 5 ms at the client
		tr.spans[id] = span{at(base + 0.5), at(base + 4.5)} // 4 ms in the handler
	}
	d := series{
		hQueueWait.key("_sum"): 0.001, hQueueWait.key("_count"): 2,
		hStage.key("_sum"): 0.004, hStage.key("_count"): 2,
		hCommit.key("_sum"): 0.002, hCommit.key("_count"): 2,
		hFsync.key("_sum"): 0.001, hFsync.key("_count"): 2,
		phase("eval").key("_sum"): 0.003, phase("eval").key("_count"): 2,
		hPublish.key("_sum"): 0.0005, hPublish.key("_count"): 2,
		"xview_wal_fsyncs_total": 2,
	}
	rep := attribute(w, tr, d)
	// Handler 8 ms − queue 1 − stage 4 − commit 2 − publish 0.5 = 0.5 ms.
	if got := rep.metrics["http.residual_write_ms"]; math.Abs(got-0.25) > 1e-9 {
		t.Errorf("residual per write = %g ms, want 0.25", got)
	}
	if got := rep.metrics["trace.unattributed_frac"]; math.Abs(got-0.05) > 1e-9 {
		t.Errorf("unattributed = %g, want 0.05 of 10 ms", got)
	}
	if got := rep.metrics["http.loopback_ms"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("loopback = %g ms, want 1", got)
	}
	if got := rep.metrics["wal.fsyncs_per_write"]; got != 1 {
		t.Errorf("fsyncs per write = %g, want 1", got)
	}
	shares := map[string]float64{}
	for _, s := range rep.writeRank {
		shares[s.layer] = s.ms
	}
	// Staging and commit minus the eval phase and the fsync: 4 + 2 − 3 − 1.
	if got := shares["core.txn"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("core.txn per write = %g ms, want 1", got)
	}
	if rep.writeRank[0].layer != "xpath.eval" {
		t.Errorf("top layer %s, want xpath.eval", rep.writeRank[0].layer)
	}
}
