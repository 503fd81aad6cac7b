package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func TestSameSeedSameBytes(t *testing.T) {
	a, b := serveRequests(7, partOpen, 300), serveRequests(7, partOpen, 300)
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between two generations with seed 7", i)
		}
	}
	c := serveRequests(8, partOpen, 300)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].Body, c[i].Body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated the same requests")
	}
	ja, jb := jobUploads(7, 2), jobUploads(7, 2)
	for i := range ja {
		if !bytes.Equal(ja[i].Body, jb[i].Body) {
			t.Fatalf("job upload %d differs between two generations with seed 7", i)
		}
	}
}

func TestWebStreamNeverRepeatsContent(t *testing.T) {
	web := newWebStream(3)
	seen := map[[2]uint64]string{}
	for b := 0; b < 40; b++ {
		for _, tb := range web.nextBatch(batchTables).Tables {
			k := contentKey(tb)
			if prev, ok := seen[k]; ok {
				t.Fatalf("table %s repeats the content of %s", tb.Name, prev)
			}
			seen[k] = tb.Name
		}
	}
}

func TestServeMix(t *testing.T) {
	reqs := serveRequests(5, partSaturate, 4000)
	var kinds [numKinds]int
	rechecked := map[string]bool{}
	for _, r := range reqs {
		kinds[r.Kind]++
		if r.Kind == kindRecheck {
			if rechecked[r.Name] {
				t.Fatalf("table %s re-checked twice", r.Name)
			}
			rechecked[r.Name] = true
		}
	}
	share := func(k int) float64 { return float64(kinds[k]) / float64(len(reqs)) }
	if s := share(kindRecheck); s < 0.38 || s > 0.47 {
		t.Errorf("re-check share %.3f, want about 0.45", s)
	}
	if s := share(kindTall); s < 0.03 || s > 0.07 {
		t.Errorf("tall share %.3f, want about 0.05", s)
	}
}

func TestRestoreUndoesInjectedCells(t *testing.T) {
	web := newWebStream(11)
	restored := 0
	for i := 0; i < 200; i++ {
		tb, labels := web.next()
		fixed := restore(tb, labels)
		for _, l := range labels {
			if got := fixed.Column(l.Column).Values[l.Row]; got != l.Original {
				t.Fatalf("%s %s row %d: restored %q, want %q", tb.Name, l.Column, l.Row, got, l.Original)
			}
			restored++
		}
		if contentKey(tb) == contentKey(fixed) && len(labels) > 0 {
			t.Fatalf("%s: restoring %d labeled cells changed nothing", tb.Name, len(labels))
		}
	}
	if restored == 0 {
		t.Fatal("no labeled cells in 200 tables")
	}
}

func TestJobUploadShape(t *testing.T) {
	for _, u := range jobUploads(2, 4) {
		if u.Rows < jobMinRows || u.Rows > jobMaxRows {
			t.Errorf("%s: %d rows, want %d–%d", u.Name, u.Rows, jobMinRows, jobMaxRows)
		}
		if lines := bytes.Count(u.Body, []byte("\n")); lines < u.Rows+1 {
			t.Errorf("%s: %d CSV lines for %d rows", u.Name, lines, u.Rows)
		}
	}
}

func TestBlockQueueRunsWholeBlocks(t *testing.T) {
	const first = 5
	q := &blockQueue{next: first, first: first, limit: 4 * templates, block: templates} // the window has already ended
	var got []int
	for i, ok := q.take(); ok; i, ok = q.take() {
		got = append(got, i)
	}
	if len(got) != templates || got[0] != first || got[templates-1] != first+templates-1 {
		t.Fatalf("took %v, want one whole cycle %d..%d", got, first, first+templates-1)
	}
	q = &blockQueue{limit: 2*templates + 3, block: templates, end: time.Now().Add(time.Hour)}
	n := 0
	for _, ok := q.take(); ok; _, ok = q.take() {
		n++
	}
	if n != 2*templates+3 {
		t.Fatalf("took %d uploads inside the window, want all %d", n, 2*templates+3)
	}
}

func TestJobCyclesRepeatTheSameWork(t *testing.T) {
	ups := jobUploads(6, 2*templates)
	for i := 0; i < templates; i++ {
		a, b := ups[i], ups[i+templates]
		if d := a.Rows - b.Rows; d < -200 || d > 200 {
			t.Errorf("template %d: %d rows in cycle 0, %d in cycle 1", i, a.Rows, b.Rows)
		}
		if bytes.Equal(a.Body, b.Body) {
			t.Errorf("template %d: cycle 1 repeats the rows of cycle 0", i)
		}
	}
}

func TestServePartsShareNoContent(t *testing.T) {
	open, sat := serveRequests(4, partOpen, 2*openCycles*len(mixCycle)), serveRequests(4, partSaturate, 1000)
	seen := map[string]string{}
	for _, r := range open {
		seen[string(r.Body)] = r.Name
	}
	for _, r := range sat {
		if prev, ok := seen[string(r.Body)]; ok {
			t.Fatalf("saturation request %s repeats open-loop request %s", r.Name, prev)
		}
	}
	// Each open-loop phase sends every tall template exactly once.
	nOpen := openCycles * len(mixCycle)
	for ph := 0; ph < 2; ph++ {
		talls := 0
		for _, r := range open[ph*nOpen : (ph+1)*nOpen] {
			if r.Kind == kindTall {
				if want := fmt.Sprintf("tall%d", ph*templates+talls); r.Name != want {
					t.Fatalf("phase %d: tall table %s, want %s", ph, r.Name, want)
				}
				talls++
			}
		}
		if talls != templates {
			t.Fatalf("phase %d: %d tall tables, want %d", ph, talls, templates)
		}
	}
}

func TestBlockQueueStartsOnlyBlocksThatFit(t *testing.T) {
	q := &blockQueue{limit: 100, block: 10, end: time.Now().Add(50 * time.Millisecond)}
	n := 0
	for _, ok := q.take(); ok; _, ok = q.take() {
		n++
		if n == 10 {
			time.Sleep(30 * time.Millisecond) // the first block took 30ms; a second would end after the window
		}
	}
	if n != 10 {
		t.Fatalf("took %d, want the one block that fits", n)
	}
}
