package main

import (
	"bytes"
	"fmt"
	"testing"

	"rxview"
)

// opsOf draws n requests from every stream of sp for seed, over a freshly
// generated dataset.
func opsOf(t *testing.T, sp spec, seed int64, n int) [][]op {
	t.Helper()
	syn, err := rxview.NewSynthetic(syntheticConfig(sp))
	if err != nil {
		t.Fatal(err)
	}
	var cs []cNode
	for k := int64(1); k <= 1500; k++ {
		cs = append(cs, cNode{key: k, val: fmt.Sprintf("v%d", k%40)})
	}
	ss, _ := streams(sp, seed, syn, cs)
	out := make([][]op, len(ss))
	for i, s := range ss {
		for j := 0; j < n; j++ {
			out[i] = append(out[i], s.next())
		}
	}
	return out
}

func sameOps(a, b [][]op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.kind != y.kind || !bytes.Equal(x.body, y.body) || x.inserts != y.inserts ||
				x.deletes != y.deletes || !bytes.Equal(x.undo, y.undo) || x.path != y.path || x.want != y.want {
				return false
			}
		}
	}
	return true
}

func TestSameSeedSameOps(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := opsOf(t, sp, 7, 300), opsOf(t, sp, 7, 300)
			if !sameOps(a, b) {
				t.Fatal("the same seed produced two different op sequences")
			}
			if sameOps(a, opsOf(t, sp, 8, 300)) {
				t.Fatal("seeds 7 and 8 produced the same op sequence")
			}
		})
	}
}

// Every write stream leaves the view as it found it: each inserted key is
// deleted by the stream's next request, and no two connections share a key.
func TestWriteStreamsUndoThemselves(t *testing.T) {
	for _, sp := range specs {
		ops := opsOf(t, sp, 3, 200)
		owner := map[int64]int{}
		for i, conn := range ops {
			for j, o := range conn {
				if o.inserts == 0 {
					continue
				}
				if c, ok := owner[o.inserts]; ok && c != i {
					t.Errorf("%s: key %d used by connections %d and %d", sp.name, o.inserts, c, i)
				}
				owner[o.inserts] = i
				if j+1 == len(conn) {
					continue
				}
				if next := conn[j+1]; next.deletes != o.inserts || !bytes.Equal(next.body, o.undo) {
					t.Errorf("%s conn %d op %d: insert of %d not followed by its delete", sp.name, i, j, o.inserts)
				}
			}
		}
	}
}

func TestDurableStreamMixesTx(t *testing.T) {
	sp, _ := specByName("durable-1k")
	counts := map[string]int{}
	for _, o := range opsOf(t, sp, 1, 70)[0] {
		counts[o.kind]++
	}
	// Units of 4: three insert/delete pairs and one /tx: 6 + 1 requests.
	if counts[kindUpdate] != 60 || counts[kindTx] != 10 {
		t.Errorf("70 requests split %v, want 60 update + 10 tx", counts)
	}
}
