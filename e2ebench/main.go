// Command e2ebench is the repository's end-to-end benchmark. It serves the
// real server.NewHandler on loopback TCP inside its own process and drives
// it over HTTP from the same process, with at most two connections and no
// client-side retries, so every number covers a whole request: HTTP, the
// writer queue, the paper's update pipeline (validate, eval, translate,
// apply, maintain), the WAL and epoch publication.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload durable-1k --seed 1 --seconds 10 --trace 0
//
// A run sets the view up several times (set-up time is the median), checks
// its fingerprint, drives a warm-up and then the timed window, settles the
// view back to its base state and checks it against the fingerprint, the
// acknowledged-write count and — on the durable workload — a restart from
// the data directory. A failed check exits 1 without printing numbers.
// Otherwise the last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or, from a traced run that splits the
// window into an untraced half and a half with request spans and /metrics
// deltas, the per-layer metrics (--trace 1). The workloads and the metric
// catalogue are in workload.go and metrics.go; BENCHMARK.json at the
// repository root records both. The benchmark's own tests run with
// `go -C e2ebench test .`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the request streams")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: add a traced window and report the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for durable data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(specNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, scratch: *scratch}
	out, err := measure(sp, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", sp.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

type config struct {
	seed    int64
	window  time.Duration
	traced  bool
	scratch string
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload end to end and returns the result line; any
// failed correctness check is an error.
func measure(sp spec, cfg config, log io.Writer) (output, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return output{}, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if cfg.traced {
		tr = newTracer()
		wrap = tr.wrap
	}
	in, times, err := setUpRepeated(sp, dir, wrap)
	if err != nil {
		return output{}, err
	}
	defer in.close()
	heapMB := liveHeapMB()
	a := newAdmin(in.base)
	defer a.close()

	base, gen0, err := a.fingerprint()
	if err != nil {
		return output{}, fmt.Errorf("base fingerprint: %w", err)
	}
	conns, err := buildConns(sp, cfg.seed, in, a)
	if err != nil {
		return output{}, err
	}
	defer func() {
		for _, c := range conns {
			c.tr.CloseIdleConnections()
		}
	}()
	printHeader(log, sp, cfg, base, times)

	// A traced run splits its time between an untraced window, the base
	// of trace.overhead_frac, and the traced window, so it takes no longer
	// than an untraced run.
	length := cfg.window
	if cfg.traced {
		length /= 2
	}
	b := newBook()
	windows := []window{runWindow(conns, sp.warmup, b, nil)}
	timed := runWindow(conns, length, b, nil)
	windows = append(windows, timed)
	var traced window
	var delta series
	if cfg.traced {
		before, err := a.scrape()
		if err != nil {
			return output{}, err
		}
		traced = runWindow(conns, length, b, &idSource{})
		after, err := a.scrape()
		if err != nil {
			return output{}, err
		}
		delta = after.delta(before)
		windows = append(windows, traced)
	}

	e2e, err := endToEnd(timed, times)
	if err != nil {
		return output{}, err
	}
	var queryEval float64
	if cfg.traced {
		if queryEval, err = queryEvalMS(in.eng.Snapshot(), conns); err != nil {
			return output{}, err
		}
	}
	attempted, failed, err := verify(sp, in, a, b, base, gen0, windows, log)
	if err != nil {
		return output{}, err
	}

	out := output{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	printKinds(log, timed)
	if !cfg.traced {
		for _, m := range endToEndCatalog {
			out.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		printMetrics(log, "end-to-end", endToEndCatalog, e2e)
		return out, nil
	}

	rep := attribute(traced, tr, delta)
	pl := rep.metrics
	pl["client.gen_lag_ms"] = meanLagMS(traced)
	pl["xpath.query_eval_ms"] = queryEval
	pl["setup.dataset_s"], pl["setup.open_s"], pl["setup.serve_s"] = setupMedians(times)
	pl["setup.open_heap_mb"] = heapMB
	pl["view.nodes"], pl["view.matrix_pairs"] = float64(base.Nodes), float64(base.MatrixPairs)
	pl["trace.overhead_frac"] = 1 - ratio(closedOpsPerSec(traced), closedOpsPerSec(timed))
	for _, m := range perLayerCatalog {
		out.Metrics[m.name] = metric{pl[m.name], m.unit}
	}
	spanFile := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.json", sp.name, cfg.seed))
	if err := writeSpans(spanFile, traced, tr); err != nil {
		return output{}, err
	}
	printMetrics(log, "per-layer (traced window, "+spanFile+")", perLayerCatalog, pl)
	printRanking(log, rep)
	return out, nil
}

// verify is the run's correctness check: every answer matched the base
// state, every open insert/delete pair settles, the settled view is the
// base view, the generation moved by exactly the acknowledged write units,
// and a durable view keeps every acknowledged write across a restart. It
// also counts the requests sent and how many failed.
func verify(sp spec, in *instance, a *admin, b *book, base fingerprint, gen0 uint64, windows []window, log io.Writer) (attempted, failed int, err error) {
	failures := map[string]int{}
	for _, w := range windows {
		if w.wrong != "" {
			return 0, 0, errors.New(w.wrong)
		}
		attempted += len(w.samples)
		for k, n := range w.failed {
			failures[k] += n
			failed += n
		}
		for _, msg := range w.first {
			fmt.Fprintln(log, msg)
		}
	}
	if err := a.settle(b); err != nil {
		return 0, 0, err
	}
	end, gen, err := a.fingerprint()
	if err != nil {
		return 0, 0, err
	}
	if !end.equal(base) {
		return 0, 0, fmt.Errorf("settled view differs from the base view\n  base:    %v\n  settled: %v", base, end)
	}
	if gen-gen0 != uint64(b.units) {
		return 0, 0, fmt.Errorf("generation advanced by %d, %d write units acknowledged", gen-gen0, b.units)
	}
	if sp.durable {
		if err := checkRestart(sp, in, a, b); err != nil {
			return 0, 0, err
		}
	}
	fmt.Fprintf(log, "checks: answers match the base state; settled view equals base (%v); generation +%d = acknowledged units", end, b.units)
	if sp.durable {
		fmt.Fprint(log, "; restart from the data directory kept every acknowledged write")
	}
	fmt.Fprintln(log)
	fmt.Fprintf(log, "requests over all windows: %d attempted, %d failed (failed_frac %.4f; by kind %v); the client never retries\n",
		attempted, failed, ratio(float64(failed), float64(attempted)), failures)
	return attempted, failed, nil
}

// liveHeapMB is the live heap after a collection, with the view loaded.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func setupMedians(times []setupTimes) (dataset, open, serve float64) {
	var d, o, s []float64
	for _, t := range times {
		d = append(d, t.dataset.Seconds())
		o = append(o, t.open.Seconds())
		s = append(s, t.serve.Seconds())
	}
	return median(d), median(o), median(s)
}

func meanLagMS(w window) float64 {
	var sum float64
	n := 0
	for _, r := range w.results {
		if r.paced {
			sum += ms(r.start.Sub(r.due))
			n++
		}
	}
	return ratio(sum, float64(n))
}

func printHeader(log io.Writer, sp spec, cfg config, base fingerprint, times []setupTimes) {
	loop := fmt.Sprintf("%d closed-loop writer(s), %d closed-loop reader(s)", sp.writers, sp.readers)
	if sp.paceHz > 0 {
		loop += fmt.Sprintf(", 1 open-loop writer at %g requests/s", sp.paceHz)
	}
	store := "in-memory"
	if sp.durable {
		store = "durable, fsync=always, checkpoint every 256 generations"
	}
	fmt.Fprintf(log, "workload %s: %s\n", sp.name, sp.why)
	fmt.Fprintf(log, "  dataset nc=%d seed=%d: nodes=%d edges=%d |L|=%d |M|=%d; %s\n",
		sp.nc, dataSeed, base.Nodes, base.Edges, base.TopoLen, base.MatrixPairs, store)
	window := fmt.Sprintf("window %v", cfg.window)
	if cfg.traced {
		window = fmt.Sprintf("windows %v untraced + %v traced", cfg.window/2, cfg.window/2)
	}
	fmt.Fprintf(log, "  request seed=%d; %s; warm-up %v; %s\n", cfg.seed, loop, sp.warmup, window)
	var tot []float64
	for _, t := range times {
		tot = append(tot, t.total().Seconds())
	}
	d, o, s := setupMedians(times)
	fmt.Fprintf(log, "  set-up ×%d: median %.4fs (dataset %.4fs, open %.4fs, serve %.4fs)\n", len(times), median(tot), d, o, s)
}

func printKinds(log io.Writer, w window) {
	tw := tabwriter.NewWriter(log, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "kind\tloop\tattempted\tfailed\tacked/s\tp50 ms\ttail\ttail ms\tsamples\t")
	for _, k := range []string{kindUpdate, kindTx, kindQuery} {
		for _, paced := range []bool{false, true} {
			var lat []float64
			attempted, failed := 0, 0
			for _, x := range w.samples {
				if kinds[x.kind] != k || x.paced != paced {
					continue
				}
				attempted++
				if !x.acked {
					failed++
					continue
				}
				lat = append(lat, float64(x.latency))
			}
			if attempted == 0 {
				continue
			}
			loop := "closed"
			if paced {
				loop = "open"
			}
			q := tailQuantile(len(lat))
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%.3f\tp%g\t%.3f\t%d\t\n", k, loop, attempted, failed,
				float64(len(lat))/w.elapsed.Seconds(), percentile(lat, 0.5), 100*q, percentile(lat, q), len(lat))
		}
	}
	tw.Flush()
}

func printMetrics(log io.Writer, title string, cat []catalogEntry, vals map[string]float64) {
	fmt.Fprintf(log, "%s:\n", title)
	tw := tabwriter.NewWriter(log, 0, 0, 2, ' ', 0)
	for _, m := range cat {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\t%s\n", m.name, vals[m.name], m.unit, m.about)
	}
	tw.Flush()
}

func printRanking(log io.Writer, rep layerReport) {
	line := func(title string, per float64, n int, s []share) {
		if n == 0 {
			return
		}
		var parts []string
		for _, x := range s {
			parts = append(parts, fmt.Sprintf("%s %.3f", x.layer, x.ms))
		}
		fmt.Fprintf(log, "ranking, %s (ms per op over %d ops; client sees %.3f): %s\n", title, n, per, strings.Join(parts, " > "))
	}
	line("write path", rep.clientMSW, rep.writeUnits, rep.writeRank)
	line("read path", rep.clientMSR, rep.reads, rep.readRank)
	if rep.writeUnits == 0 {
		return
	}
	// The ranking measured at library level before this benchmark existed.
	at := map[string]float64{}
	for _, x := range rep.writeRank {
		at[x.layer] = x.ms
	}
	eval, maintain, fsync := at["xpath.eval"], at["reach.maintain"], at["wal.fsync"]
	holds := func(ok bool) string {
		if ok {
			return "confirmed"
		}
		return "refuted"
	}
	if fsync == 0 {
		fmt.Fprintf(log, "library-level ranking eval > maintain: %s here (%.3f, %.3f ms per write unit; no WAL, so no fsync)\n",
			holds(eval > maintain), eval, maintain)
		return
	}
	fmt.Fprintf(log, "library-level ranking eval > maintain > fsync: %s here (%.3f, %.3f, %.3f ms per write unit)\n",
		holds(eval > maintain && maintain > fsync), eval, maintain, fsync)
}
