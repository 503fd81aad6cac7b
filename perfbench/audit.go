package main

// audit.go is the audit-fresh workload: the paper's offline audit path.
// One caller runs Model.DetectAll, with one worker, in a closed loop over
// batches of 64 WEB tables from a stream that never repeats a table, so
// the memo cache answers almost nothing and the run measures detection.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/table"
)

// traceBatches is how many batches the traced replay covers.
const traceBatches = 8

func runAudit(ctx context.Context, o options, out *outcome) error {
	// One detection worker. On a small shared host the speed-up of a
	// second worker swings with the neighbours' load (1.5–1.9× on two
	// vCPUs, a cells_per_s spread of 0.20 over ten seeds; 0.12 with one
	// worker); one worker measures the per-table cost of detection, which
	// is what this workload is for. The daemon workloads use every core.
	md, _, err := setUp(o, out, 1, nil)
	if err != nil {
		return err
	}
	web := newWebStream(o.seed)
	resetPeakRSS()
	window := time.Duration(o.seconds * float64(time.Second))
	var busy time.Duration
	var lat, rates []float64
	var found [][]unidetect.Finding
	var cells int
	for b := 0; busy < window || b < qualityBatches; b++ {
		bt := web.nextBatch(batchTables)
		start := time.Now()
		fs := md.m.DetectAll(ctx, bt.Tables)
		d := time.Since(start)
		busy += d
		lat = append(lat, float64(d)/1e6)
		rates = append(rates, float64(bt.Cells)/d.Seconds())
		cells += bt.Cells
		found = append(found, fs)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	// The oracle regenerates the same batches after the timed loop, so
	// its work shares neither the measured phase's heap nor its GC.
	ref := md.parts.predictor(0, true)
	check := newWebStream(o.seed)
	var precision float64
	for b, fs := range found {
		bt := check.nextBatch(batchTables)
		out.attempted++
		if b < qualityBatches {
			precision += precisionAt100(fs, bt.Labels) / qualityBatches
		}
		if err := checkAudit(fs, ref.DetectAll(ctx, bt.Tables)); err != nil {
			out.fail("batch %d: %v", b, err)
		}
	}
	var prom strings.Builder
	if err := md.reg.WritePromText(&prom); err != nil {
		return err
	}
	hit, err := cacheHitFrac(prom.String())
	if err != nil {
		return err
	}
	out.e2e["cells_per_s"] = median(rates)
	out.e2e["p50_ms"] = median(lat)
	out.layers["e2e.p99_ms"] = quantile(lat, 0.99)
	out.e2e["precision_at_100"] = precision
	out.e2e["rss_mb"] = rss
	out.layers["core.cache_hit_frac"] = hit
	fmt.Fprintf(os.Stderr, "perfbench: audit-fresh: %d batches of %d tables, %d cells, cache hit ratio %.4f\n",
		len(lat), batchTables, cells, hit)
	if o.trace {
		return traceAudit(ctx, o, out, md)
	}
	return nil
}

// traceAudit replays the run's first batches from freshly generated
// copies: through the layers with spans, through the same layers
// untraced (the tracing overhead), and through a one-worker DetectAll
// (core.detect_ms, allocations per table).
func traceAudit(ctx context.Context, o options, out *outcome, md *model) error {
	tr := newTracer()
	rp, bare := newReplayer(md.parts), newReplayer(md.parts)
	traced, untraced, plain := newWebStream(o.seed), newWebStream(o.seed), newWebStream(o.seed)
	var tracedD, untracedD time.Duration
	var groups [][]*table.Table
	tables := 0
	for b := 0; b < traceBatches; b++ {
		bt := traced.nextBatch(batchTables)
		tables += len(bt.Tables)
		start := time.Now()
		root := tr.start(rootBatch, -1, fmt.Sprintf("batch-%d", b))
		for _, t := range bt.Tables {
			rp.replay(tr, root, t.Name, t, allDetectors)
		}
		tr.end(root)
		tracedD += time.Since(start)

		ts := untraced.nextBatch(batchTables).Tables
		start = time.Now()
		for _, t := range ts {
			bare.replay(nil, -1, t.Name, t, allDetectors)
		}
		untracedD += time.Since(start)
		groups = append(groups, plain.nextBatch(batchTables).Tables)
	}
	lt := tr.layers()
	layerMetrics(out, lt, rp, tables)
	detectMS, allocs := serialDetect(ctx, md, groups)
	out.layers["core.detect_ms"] = detectMS
	out.layers["core.residual_ms"] = detectMS - measureMS(lt, tables)
	out.layers["core.allocs_per_table"] = allocs
	out.layers["trace.overhead_frac"] = tracedD.Seconds()/untracedD.Seconds() - 1
	out.trace = tr
	return nil
}

// serialDetect times DetectAll on a one-worker predictor over groups of
// tables, in order, and returns milliseconds and heap allocations per
// table.
func serialDetect(ctx context.Context, md *model, groups [][]*table.Table) (msPerTable, allocsPerTable float64) {
	p := md.parts.predictor(1, false)
	p.Warm()
	tables := 0
	for _, g := range groups {
		tables += len(g)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, g := range groups {
		p.DetectAll(ctx, g)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d) / 1e6 / float64(tables), float64(after.Mallocs-before.Mallocs) / float64(tables)
}
