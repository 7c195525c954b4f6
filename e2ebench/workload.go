package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"rxview"
)

// dataSeed generates every workload's synthetic dataset. The view is part
// of a workload's definition — its node count identifies the state being
// measured — so it stays fixed; --seed varies the request stream.
const dataSeed = 42

// spec is one workload: the view it serves and the traffic shape it drives.
type spec struct {
	name string
	why  string

	nc      int  // SyntheticConfig.NC
	durable bool // WAL with fsync=always and the default checkpoint cadence

	writers int     // closed-loop writer connections
	readers int     // closed-loop reader connections
	paceHz  float64 // open-loop writer connection's rate in requests/s; 0 for none
	txEvery int     // writer streams: every txEvery-th unit is a /tx group

	setupReps int           // set-ups timed per run; setup_s is their median
	warmup    time.Duration // load before the timed window, excluded from it
}

var specs = []spec{
	{
		name:    "durable-1k",
		why:     "1,051-node view, fsync=always, 2 closed-loop writers, every 4th unit a /tx: cheap ops, so HTTP, queue, publish, WAL fsync and checkpoint stalls are a large share",
		nc:      250,
		durable: true,
		writers: 2, txEvery: 4,
		setupReps: 31, warmup: 2 * time.Second,
	},
	{
		name:    "mixed-11k",
		why:     "11,216-node view, 1 closed-loop Zipf reader over ~1k query texts beside 1 open-loop writer paced at 20/s: read cost and memo reuse at a fixed invalidation rate",
		nc:      2500,
		readers: 1, paceHz: 20, txEvery: 2,
		setupReps: 7, warmup: 2 * time.Second,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Request kinds, named after their endpoints.
const (
	kindUpdate = "update"
	kindTx     = "tx"
	kindQuery  = "query"
)

// op is one request a connection sends, with what the benchmark needs to
// check its verdict and to undo it at the end of the run.
type op struct {
	kind string
	body []byte

	inserts int64  // key this op inserts (0 for none)
	deletes int64  // key this op deletes (0 for none)
	undo    []byte // inserts ≠ 0: the /update body that deletes the key again

	path string // queries: the XPath text
	want int    // queries: the result count of the base state
}

func (o op) endpoint() string { return "/" + o.kind }

// updateJSON is the wire form of one update on /update and in /tx groups.
type updateJSON struct {
	Kind   string `json:"kind"`
	Path   string `json:"path"`
	Type   string `json:"type,omitempty"`
	Values []any  `json:"values,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers reach here
	}
	return b
}

// stream yields a connection's requests in order. The sequence is a pure
// function of the seed and the view, so the same seed replays it exactly.
type stream interface {
	next() op
}

// A slot is one insert target with its own key, and the requests that
// insert the key there and delete it again. Writes delete what they
// insert, but the base tables keep some of a deleted element's rows, and
// re-inserting a key under another target can then be refused as not
// updatable. So every stream cycles a fixed set of slots: a key only ever
// returns to its own target, and after each slot's first use the
// database stops growing, so the state a window measures does not depend
// on how many writes came before it.
type slot struct {
	key             int64
	insert, del, tx []byte
}

// slotBase is above every key the synthetic generator hands out; each
// connection owns the 1,000 keys from slotBase + 1000·conn.
const slotBase = 10_000_000

// newSlot is connection conn's i-th slot, under the root with key root.
func newSlot(conn, i int, root int64) slot {
	key := int64(slotBase + 1000*conn + i)
	ins := updateJSON{Kind: "insert", Type: "C", Values: []any{key, "b" + strconv.FormatInt(key, 10)},
		Path: fmt.Sprintf(`C[key="%d"]/sub`, root)}
	del := updateJSON{Kind: "delete", Path: fmt.Sprintf(`C[key="%d"]/sub/C[key="%d"]`, root, key)}
	return slot{key: key, insert: mustJSON(ins), del: mustJSON(del), tx: mustJSON(struct {
		Updates []updateJSON `json:"updates"`
	}{[]updateJSON{ins, del}})}
}

func (s slot) insertOp() op {
	return op{kind: kindUpdate, body: s.insert, inserts: s.key, undo: s.del}
}

func (s slot) deleteOp() op { return op{kind: kindUpdate, body: s.del, deletes: s.key} }

// pairSlots is how many slots a pair stream cycles: one per root and key.
const pairSlots = 32

// pairStream emits units on slots under the view's roots, chosen by the
// seed: an /update insert followed by the /update delete that undoes it,
// except that every txEvery-th unit is one /tx group [insert k, delete k].
// Each unit leaves the view as it found it.
type pairStream struct {
	rng     *rand.Rand
	slots   []slot
	txEvery int
	unit    int
	pending *op // the delete half of the current pair
}

func newPairStream(seed int64, conn int, roots []int64, txEvery int) *pairStream {
	s := &pairStream{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), txEvery: txEvery}
	for i := 0; i < pairSlots; i++ {
		s.slots = append(s.slots, newSlot(conn, i, roots[i%len(roots)]))
	}
	return s
}

func (s *pairStream) next() op {
	if o := s.pending; o != nil {
		s.pending = nil
		return *o
	}
	sl := s.slots[s.rng.Intn(len(s.slots))]
	s.unit++
	if s.txEvery > 0 && s.unit%s.txEvery == 0 {
		return op{kind: kindTx, body: sl.tx}
	}
	del := sl.deleteOp()
	s.pending = &del
	return sl.insertOp()
}

// readStream draws query texts by a Zipf law over ranks. The texts and
// their ranks are fixed by the view; the request seed drives the draws, so
// every run reads the same mix in a different order.
type readStream struct {
	texts []op
	zipf  *rand.Zipf
}

// queryTexts is how many distinct texts a reader draws from: more than the
// engine's 256-entry per-epoch result memo holds.
const queryTexts = 1000

// newReadStream builds the texts from the base state's C nodes (key, val):
// one descendant scan //C[val="v"] per distinct value, and key lookups
// //C[key="k"] for sampled keys up to queryTexts, each with its expected
// result count.
func newReadStream(seed int64, conn int, cs []cNode) *readStream {
	perVal := map[string]int{}
	var vals []string
	for _, c := range cs {
		if perVal[c.val] == 0 {
			vals = append(vals, c.val)
		}
		perVal[c.val]++
	}
	var texts []op
	for _, v := range vals {
		texts = append(texts, queryOp(fmt.Sprintf(`//C[val="%s"]`, v), perVal[v]))
	}
	fixed := rand.New(rand.NewSource(dataSeed))
	for _, i := range fixed.Perm(len(cs)) {
		if len(texts) >= queryTexts {
			break
		}
		texts = append(texts, queryOp(fmt.Sprintf(`//C[key="%d"]`, cs[i].key), 1))
	}
	fixed.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	rng := rand.New(rand.NewSource(seed*104729 + int64(conn)))
	return &readStream{texts: texts, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(texts)-1))}
}

func queryOp(path string, want int) op {
	return op{kind: kindQuery, path: path, want: want, body: mustJSON(struct {
		Path string `json:"path"`
	}{path})}
}

func (s *readStream) next() op { return s.texts[s.zipf.Uint64()] }

// cNode is one C element of the view: its key and val.
type cNode struct {
	key int64
	val string
}

var cAttr = regexp.MustCompile(`^\((\d+), (.*)\)$`)

// parseCNodes reads the (key, val) attribute tuples of a //C result.
func parseCNodes(nodes []nodeJSON) ([]cNode, error) {
	out := make([]cNode, 0, len(nodes))
	for _, n := range nodes {
		m := cAttr.FindStringSubmatch(n.Attr)
		if n.Type != "C" || m == nil {
			return nil, fmt.Errorf("unexpected node %s%s in //C", n.Type, n.Attr)
		}
		key, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("node attr %q: %w", n.Attr, err)
		}
		out = append(out, cNode{key: key, val: m[2]})
	}
	return out, nil
}

// buildConns opens the workload's connections on a served instance.
func buildConns(sp spec, seed int64, in *instance, a *admin) ([]*conn, error) {
	var cs []cNode
	if sp.readers > 0 {
		all, err := a.query(`//C`)
		if err != nil {
			return nil, err
		}
		if cs, err = parseCNodes(all); err != nil {
			return nil, err
		}
	}
	ss, paces := streams(sp, seed, in.syn, cs)
	conns := make([]*conn, len(ss))
	for i, s := range ss {
		conns[i] = newConn(in.base, s, paces[i])
	}
	return conns, nil
}

// streams returns the workload's request streams in connection order and
// each one's pace (0 for closed loop): the writers, the readers, then the
// open-loop writer. cs is the base view's C nodes, which readers query.
func streams(sp spec, seed int64, syn *rxview.Synthetic, cs []cNode) ([]stream, []float64) {
	var ss []stream
	var paces []float64
	roots := syn.Roots()
	for w := 0; w < sp.writers; w++ {
		ss = append(ss, newPairStream(seed, w, roots, sp.txEvery))
		paces = append(paces, 0)
	}
	for r := 0; r < sp.readers; r++ {
		ss = append(ss, newReadStream(seed, r, cs))
		paces = append(paces, 0)
	}
	if sp.paceHz > 0 {
		ss = append(ss, newPairStream(seed, sp.writers, roots, sp.txEvery))
		paces = append(paces, sp.paceHz)
	}
	return ss, paces
}
