package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one client connection: its own transport holding one keep-alive
// TCP connection, and the request stream it sends. The client never
// retries: a refused or failed request is counted and the stream moves on.
type conn struct {
	tr     *http.Transport
	client *http.Client
	base   string
	stream stream
	paceHz float64 // > 0: open loop at this rate; 0: closed loop
}

func newConn(base string, s stream, paceHz float64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base: base, stream: s, paceHz: paceHz}
}

// reqIDHeader joins a client span with the handler span of the same request.
const reqIDHeader = "X-Bench-Request"

// result is one request's outcome as the client saw it.
type result struct {
	o      op
	status int
	err    error // why the request failed: transport, status, body or verdict
	acked  bool  // the write applied (every member of a /tx), or the query answered
	count  int   // queries: result count
	bytes  int   // response body size

	due, start, end time.Time // due: the open-loop schedule slot (== start when closed)
	paced           bool      // sent by the open-loop connection
	id              uint64    // traced: request id; 0 when untraced
}

// latency is measured from the due time: a stalled open-loop writer makes
// every request behind the stall late, and that wait is counted.
func (r result) latency() time.Duration { return r.end.Sub(r.due) }

// wrongAnswer reports a query whose answer differs from the base state's.
func (r result) wrongAnswer() bool { return r.o.kind == kindQuery && r.acked && r.count != r.o.want }

// send issues one request and decodes its verdict.
func (c *conn) send(o op, due time.Time, id uint64) result {
	r := result{o: o, due: due, id: id}
	req, err := http.NewRequest(http.MethodPost, c.base+o.endpoint(), bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	r.start = time.Now()
	if due.IsZero() {
		r.due = r.start
	}
	resp, err := c.client.Do(req)
	if err != nil {
		r.end = time.Now()
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.bytes = resp.StatusCode, len(body)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, bytes.TrimSpace(body))
		return r
	}
	r.acked, r.count, r.err = verdict(o.kind, body)
	if r.err == nil && !r.acked {
		r.err = fmt.Errorf("not applied: %.200s", bytes.TrimSpace(body))
	}
	return r
}

// verdict reads what a 200 response says happened.
func verdict(kind string, body []byte) (acked bool, count int, err error) {
	switch kind {
	case kindQuery:
		var v struct {
			Count *int `json:"count"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Count == nil {
			return false, 0, fmt.Errorf("query response %.80q: %v", body, err)
		}
		return true, *v.Count, nil
	case kindUpdate:
		var v struct {
			Report *struct {
				Applied bool `json:"applied"`
			} `json:"report"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Report == nil {
			return false, 0, fmt.Errorf("update response %.80q: %v", body, err)
		}
		return v.Report.Applied, 0, nil
	default:
		var v struct {
			Reports []struct {
				Applied bool `json:"applied"`
			} `json:"reports"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return false, 0, fmt.Errorf("tx response %.80q: %v", body, err)
		}
		for _, rep := range v.Reports {
			if !rep.Applied {
				return false, 0, nil
			}
		}
		return len(v.Reports) > 0, 0, nil
	}
}

// book is the run's shared write ledger: which inserted keys are not yet
// deleted (and how to delete them), and how many write units were
// acknowledged — the generation must advance by exactly that many.
type book struct {
	mu      sync.Mutex
	pending map[int64][]byte
	units   int
}

func newBook() *book { return &book{pending: map[int64][]byte{}} }

func (b *book) note(r result) {
	if !r.acked || r.o.kind == kindQuery {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.units++
	if r.o.inserts != 0 {
		b.pending[r.o.inserts] = r.o.undo
	}
	if r.o.deletes != 0 {
		delete(b.pending, r.o.deletes)
	}
}

// sample is what a window keeps of every request. It is 12 bytes and holds
// no pointers, so the benchmark's own record of a window stays small beside
// the server's memory at any request rate: peak_rss_mb is the whole
// process's, and a record that grew with throughput would make it track
// the request rate instead of the program.
type sample struct {
	end     float32 // seconds from the window start
	latency float32 // ms, from the due time
	kind    uint8   // index in kinds
	paced   bool
	acked   bool
}

// kinds indexes sample.kind.
var kinds = []string{kindUpdate, kindTx, kindQuery}

func kindIndex(k string) uint8 {
	for i, name := range kinds {
		if name == k {
			return uint8(i)
		}
	}
	panic("unknown request kind " + k)
}

// window is everything one timed stretch of load produced.
type window struct {
	start   time.Time
	elapsed time.Duration
	samples []sample
	results []result       // traced windows only: every request in full, for the spans
	failed  map[string]int // failed requests by kind
	first   []string       // the first failure of each kind, as a message
	wrong   string         // the first query answered unlike the base state
}

// record keeps r in the window and checks its answer.
func (w *window) record(r result, full bool) {
	w.samples = append(w.samples, sample{end: float32(r.end.Sub(w.start).Seconds()), latency: float32(ms(r.latency())),
		kind: kindIndex(r.o.kind), paced: r.paced, acked: r.acked})
	if full {
		w.results = append(w.results, r)
	}
	if !r.acked {
		if w.failed[r.o.kind]++; w.failed[r.o.kind] == 1 {
			w.first = append(w.first, fmt.Sprintf("first failed %s: %s: %v", r.o.kind, r.o.body, r.err))
		}
	}
	if r.wrongAnswer() && w.wrong == "" {
		w.wrong = fmt.Sprintf("query %s answered %d nodes, base state has %d", r.o.body, r.count, r.o.want)
	}
}

// runWindow drives every connection for d and waits until each has its
// last response: a window ends with nothing in flight, so /metrics scraped
// around it covers exactly its requests. ids, when non-nil, numbers the
// requests for tracing, and the window then keeps every result in full.
func runWindow(conns []*conn, d time.Duration, b *book, ids *idSource) window {
	w := window{start: time.Now(), failed: map[string]int{}}
	deadline := w.start.Add(d)
	var mu sync.Mutex
	record := func(r result) {
		mu.Lock()
		defer mu.Unlock()
		w.record(r, ids != nil)
	}
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drive(w.start, deadline, b, ids, record)
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(w.start)
	return w
}

// drive sends the connection's stream from start until deadline, back to
// back when closed-loop, on the schedule when open-loop, and hands every
// result to record.
func (c *conn) drive(start, deadline time.Time, b *book, ids *idSource, record func(result)) {
	var sched schedule
	if c.paceHz > 0 {
		sched = newSchedule(start, c.paceHz)
	}
	for i := 0; ; i++ {
		var due time.Time
		if c.paceHz > 0 {
			if i >= sched.count(deadline) {
				return
			}
			due = sched.due(i)
			time.Sleep(time.Until(due))
		} else if !time.Now().Before(deadline) {
			return
		}
		r := c.send(c.stream.next(), due, ids.next())
		r.paced = c.paceHz > 0
		b.note(r)
		record(r)
	}
}

// idSource numbers traced requests; a nil source numbers nothing.
type idSource struct{ n atomic.Uint64 }

func (s *idSource) next() uint64 {
	if s == nil {
		return 0
	}
	return s.n.Add(1)
}
