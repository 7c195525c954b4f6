package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"time"

	"rxview"
)

// nodeJSON is a node as /query returns it.
type nodeJSON struct {
	Type string `json:"type"`
	Attr string `json:"attr"`
	Text string `json:"text"`
}

// probePaths are the fixed queries whose answers go into a fingerprint:
// the roots, every C, the inner Cs, and one value scan.
var probePaths = []string{`C`, `//C`, `//C[sub/C]`, `//C[val="v1"]`}

// probe is one probe query's answer: its size and an order-free hash.
type probe struct {
	Path  string
	Count int
	Hash  uint64
}

func hashNodes(ns []nodeJSON) uint64 {
	keys := make([]string, len(ns))
	for i, n := range ns {
		keys[i] = n.Type + "\x00" + n.Attr + "\x00" + n.Text
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// fingerprint identifies a view state: the /stats sizes and the probe
// answers. Generation is carried beside it, not compared with it.
type fingerprint struct {
	Nodes, Edges, TopoLen, MatrixPairs int
	Probes                             []probe
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nodes=%d edges=%d |L|=%d |M|=%d probes=%v", f.Nodes, f.Edges, f.TopoLen, f.MatrixPairs, f.Probes)
}

func (f fingerprint) equal(g fingerprint) bool { return f.String() == g.String() }

// admin is the benchmark's own connection for set-up and checks, outside
// every timed window.
type admin struct {
	tr     *http.Transport
	client *http.Client
	base   string
}

func newAdmin(base string) *admin {
	tr := &http.Transport{}
	return &admin{tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (a *admin) close() { a.tr.CloseIdleConnections() }

func (a *admin) get(path string, into any) error {
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (a *admin) post(path string, body []byte, into any) error {
	resp, err := a.client.Post(a.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s %s: status %d: %s", path, body, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// statsJSON is the part of /stats the benchmark reads.
type statsJSON struct {
	View struct {
		Nodes       int `json:"nodes"`
		Edges       int `json:"edges"`
		TopoLen     int `json:"topo_len"`
		MatrixPairs int `json:"matrix_pairs"`
	} `json:"view"`
	Generation uint64 `json:"generation"`
}

func (a *admin) query(path string) ([]nodeJSON, error) {
	var out struct {
		Nodes []nodeJSON `json:"nodes"`
	}
	err := a.post("/query", mustJSON(struct {
		Path string `json:"path"`
	}{path}), &out)
	return out.Nodes, err
}

// fingerprint reads the served view's fingerprint and generation.
func (a *admin) fingerprint() (fingerprint, uint64, error) {
	var st statsJSON
	if err := a.get("/stats", &st); err != nil {
		return fingerprint{}, 0, err
	}
	f := fingerprint{Nodes: st.View.Nodes, Edges: st.View.Edges, TopoLen: st.View.TopoLen, MatrixPairs: st.View.MatrixPairs}
	for _, p := range probePaths {
		ns, err := a.query(p)
		if err != nil {
			return fingerprint{}, 0, err
		}
		f.Probes = append(f.Probes, probe{p, len(ns), hashNodes(ns)})
	}
	return f, st.Generation, nil
}

// write sends one update and requires it to apply.
func (a *admin) write(body []byte) error {
	var out struct {
		Report struct {
			Applied bool `json:"applied"`
		} `json:"report"`
	}
	if err := a.post("/update", body, &out); err != nil {
		return err
	}
	if !out.Report.Applied {
		return fmt.Errorf("update %s did not apply", body)
	}
	return nil
}

// settle finishes every open insert/delete pair, so the view returns to
// its base state. Each settling delete is an acknowledged write unit.
func (a *admin) settle(b *book) error {
	keys := make([]int64, 0, len(b.pending))
	for k := range b.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := a.write(b.pending[k]); err != nil {
			return fmt.Errorf("settling key %d: %w", k, err)
		}
		delete(b.pending, k)
		b.units++
	}
	return nil
}

// viewFingerprint reads the same fingerprint straight from a View.
func viewFingerprint(v *rxview.View) (fingerprint, error) {
	st := v.Stats()
	f := fingerprint{Nodes: st.Nodes, Edges: st.Edges, TopoLen: st.TopoLen, MatrixPairs: st.MatrixPairs}
	for _, p := range probePaths {
		ns, err := v.Query(context.Background(), p)
		if err != nil {
			return fingerprint{}, err
		}
		js := make([]nodeJSON, len(ns))
		for i, n := range ns {
			js[i] = nodeJSON{n.Type, n.Attr, n.Text}
		}
		f.Probes = append(f.Probes, probe{p, len(js), hashNodes(js)})
	}
	return f, nil
}

// checkRestart is the durable workloads' survival check. It acknowledges
// one marker insert, shuts the instance down, reopens its data directory
// with rxview.Open and requires the reopened view to carry every
// acknowledged write: the same generation, the same fingerprint, and the
// marker.
func checkRestart(sp spec, in *instance, a *admin, b *book) error {
	roots := in.syn.Roots()
	marker := int64(slotBase - 1)
	ins := mustJSON(updateJSON{Kind: "insert", Type: "C", Values: []any{marker, "marker"},
		Path: fmt.Sprintf(`C[key="%d"]/sub`, roots[0])})
	if err := a.write(ins); err != nil {
		return fmt.Errorf("marker insert: %w", err)
	}
	b.units++
	want, gen, err := a.fingerprint()
	if err != nil {
		return err
	}
	markerPath := fmt.Sprintf(`//C[key="%d"]`, marker)
	if ns, err := a.query(markerPath); err != nil || len(ns) != 1 {
		return fmt.Errorf("marker not served before restart (%d nodes, %v)", len(ns), err)
	}
	a.close()
	if err := in.close(); err != nil {
		return fmt.Errorf("shutting down before restart: %w", err)
	}
	syn, err := rxview.NewSynthetic(syntheticConfig(sp))
	if err != nil {
		return err
	}
	v, err := rxview.Open(syn.ATG, syn.DB, viewOptions(sp, in.dir)...)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", in.dir, err)
	}
	defer v.Close()
	if g := v.Generation(); g != gen {
		return fmt.Errorf("restart: generation %d, acknowledged through %d", g, gen)
	}
	got, err := viewFingerprint(v)
	if err != nil {
		return err
	}
	if !got.equal(want) {
		return fmt.Errorf("restart: state differs\n  before: %v\n  after:  %v", want, got)
	}
	ns, err := v.Query(context.Background(), markerPath)
	if err != nil || len(ns) != 1 {
		return fmt.Errorf("restart: marker lost (%d nodes, %v)", len(ns), err)
	}
	return nil
}

// scrape reads /metrics.
func (a *admin) scrape() (series, error) {
	resp, err := a.client.Get(a.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}
