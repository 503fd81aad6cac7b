package main

// layers.go replays inputs through each layer's public functions — type
// inference, every detector's Measure, the compact LR index, dedup and
// ranking — with a span around each call, for the traced per-layer
// breakdown. It also builds the reference predictor the audit oracle
// compares against.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/lrindex"
	"github.com/unidetect/unidetect/internal/table"
)

// modelHeader is the format header unidetect.Model.Save writes before
// the core model and the token index.
const modelHeader = "UNIDETECT-MODEL\x02"

// parts is a saved model split into the pieces core works with.
type parts struct {
	model *core.Model
	index *corpus.TokenIndex
}

func loadParts(saved []byte) (parts, error) {
	r := bytes.NewReader(saved)
	head := make([]byte, len(modelHeader))
	if _, err := io.ReadFull(r, head); err != nil || string(head) != modelHeader {
		return parts{}, fmt.Errorf("load model: unexpected header %q", head)
	}
	m, err := core.LoadModel(r)
	if err != nil {
		return parts{}, fmt.Errorf("load model: %w", err)
	}
	ix, err := corpus.DecodeTokenIndex(r)
	if err != nil {
		return parts{}, fmt.Errorf("load token index: %w", err)
	}
	return parts{model: m, index: ix}, nil
}

// predictor builds a core predictor over the saved model. workers > 0
// pins the worker pool size; reference selects the oracle path.
func (p parts) predictor(workers int, reference bool) *core.Predictor {
	m := p.model
	if workers > 0 {
		pinned := *p.model
		pinned.Config.Workers = workers
		m = &pinned
	}
	pr := core.NewPredictor(m, detectors.All(m.Config, detectors.Options{}), &core.Env{Index: p.index})
	pr.Reference = reference
	return pr
}

// detectorNames are the metric names of the error classes.
var detectorNames = [core.NumClasses]string{
	core.ClassSpelling:   "spelling",
	core.ClassOutlier:    "outlier",
	core.ClassUniqueness: "uniqueness",
	core.ClassFD:         "fd",
	core.ClassFDSynth:    "fdsynth",
}

// replayer runs tables layer by layer and counts what each layer did.
type replayer struct {
	dets  []core.Detector
	env   *core.Env
	ix    *lrindex.Index
	sc    *core.Scratch
	alpha float64

	measurements [core.NumClasses]int
	valid        [core.NumClasses]int
	lookups      int
	bucketHits   int
}

func newReplayer(p parts) *replayer {
	return &replayer{
		dets:  detectors.All(p.model.Config, detectors.Options{}),
		env:   &core.Env{Index: p.index},
		ix:    core.BuildIndex(p.model),
		sc:    core.NewScratch(),
		alpha: p.model.Config.Alpha,
	}
}

// Which detectors a replay runs.
const (
	allDetectors    = iota
	columnDetectors // the per-column classes a streaming scan folds chunk by chunk
	tableDetectors  // the FD classes a streaming scan runs at end of stream
)

// replay measures t with the selected detectors as the fast path does —
// column by column with one reused scratch where the detector allows —
// looks every valid measurement up in the LR index, then deduplicates
// and ranks the findings, each step in its own span under parent.
func (r *replayer) replay(tr *tracer, parent int, req string, t *table.Table, which int) []core.Finding {
	sp := tr.start("table.infer", parent, req)
	for _, c := range t.Columns {
		c.Type()
	}
	tr.end(sp)
	best := map[string]int{}
	var found []core.Finding
	for _, det := range r.dets {
		cm, perColumn := det.(core.ColumnMeasurer)
		if (which == columnDetectors && !perColumn) || (which == tableDetectors && perColumn) {
			continue
		}
		cls := det.Class()
		sp = tr.start("detectors."+detectorNames[cls], parent, req)
		var ms []core.Measurement
		if perColumn {
			for pos := range t.Columns {
				ms = append(ms, cm.MeasureColumn(t, pos, r.env, r.sc)...)
			}
		} else {
			ms = det.Measure(t, r.env)
		}
		tr.end(sp)
		r.measurements[cls] += len(ms)
		sp = tr.start("lrindex", parent, req)
		q := det.Quantizer()
		for _, m := range ms {
			if !m.Valid {
				continue
			}
			r.valid[cls]++
			lr, support, oc := r.ix.LR(int(cls), m.Key, q.Bin(m.Theta1), q.Bin(m.Theta2))
			r.lookups++
			if oc == lrindex.OutcomeBucket {
				r.bucketHits++
			}
			if lr > r.alpha {
				continue
			}
			f := core.Finding{Class: cls, Table: t.Name, Column: m.Column, Rows: m.Rows,
				Values: m.Values, LR: lr, Theta1: m.Theta1, Theta2: m.Theta2, Support: support, Detail: m.Detail}
			found = append(found, f)
		}
		tr.end(sp)
	}
	sp = tr.start("core.rank", parent, req)
	out := found[:0]
	for _, f := range found {
		key := strconv.Itoa(int(f.Class)) + fmt.Sprint(f.Rows)
		if i, ok := best[key]; ok {
			if f.LR < out[i].LR {
				out[i] = f
			}
			continue
		}
		best[key] = len(out)
		out = append(out, f)
	}
	core.SortFindings(out)
	tr.end(sp)
	return out
}

// validFrac is the share of class cls's measurements that were valid
// perturbations, the ones worth a lookup.
func (r *replayer) validFrac(cls core.Class) float64 {
	if r.measurements[cls] == 0 {
		return 0
	}
	return float64(r.valid[cls]) / float64(r.measurements[cls])
}
