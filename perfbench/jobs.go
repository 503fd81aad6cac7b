package main

// jobs.go is the jobs-tall workload: async /v1/jobs uploads of tall
// ENTERPRISE tables with nproc jobs outstanding. It is the only
// workload that runs colstore's streaming decoder, the chunk-by-chunk
// SourceScan with a checkpoint per chunk, the exact FD pass at the end
// of the stream, and the job store's spool.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/table"
)

const (
	jobChunkRows = colstore.DefaultChunkRows // the daemon's -job-chunk-rows
	jobPool      = 4 * templates             // uploads generated per run: whole cycles
	jobPoll      = 10 * time.Millisecond     // status poll interval
	traceJobs    = 2                         // jobs the traced replay covers
)

// jobRun is one job's client-side record.
type jobRun struct {
	upload  jobUpload
	submit  time.Duration // POST /v1/jobs until its 202
	latency time.Duration // POST until the job's terminal state
	reply   []byte
	err     error
}

func runJobs(ctx context.Context, o options, out *outcome) error {
	md, d, err := setUp(o, out, 0, []string{"-jobs-dir", o.workdir + "/jobs",
		"-job-workers", fmt.Sprint(o.procs), "-job-chunk-rows", fmt.Sprint(jobChunkRows)})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	uploads := jobUploads(o.seed, jobPool)

	cpu0, gen0 := d.cpu(), selfCPU()
	start := time.Now()
	q := &blockQueue{limit: len(uploads), block: templates,
		end: start.Add(time.Duration(o.seconds * float64(time.Second)))}
	runs := make([]jobRun, len(uploads))
	var wg sync.WaitGroup
	for c := 0; c < o.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := q.take(); ok; i, ok = q.take() {
				runs[i] = runJob(d, uploads[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	daemonCPU, genCPU := d.cpu()-cpu0, selfCPU()-gen0
	n := q.next
	runs = runs[:n]
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	prom, err := d.metrics()
	if err != nil {
		return err
	}
	hit, err := cacheHitFrac(prom)
	if err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	d = nil

	// The run holds whole cycles of the templates, so the same work is
	// measured however many cycles fit. Each of the nproc clients keeps
	// one job outstanding; rows per second of job time, times nproc, is
	// the throughput with nproc jobs outstanding, and the drain at the
	// end, when fewer are left, does not count as idle time.
	var lat, submit []float64
	var chunks, rows int
	var jobTime time.Duration
	for _, r := range runs {
		lat = append(lat, float64(r.latency)/1e6)
		submit = append(submit, float64(r.submit)/1e6)
		if r.err == nil {
			rows += r.upload.Rows
			jobTime += r.latency
		}
		if _, st, err := splitJobReply(r.reply); err == nil {
			chunks += st.Chunks
		}
	}
	rowsPerSec := 0.0
	if jobTime > 0 {
		rowsPerSec = float64(o.procs) * float64(rows) / jobTime.Seconds()
	}
	out.attempted = n
	if err := checkJobs(ctx, o, out, md, runs); err != nil {
		return err
	}
	out.e2e["cells_per_s"] = rowsPerSec * jobCols
	out.e2e["p50_ms"] = median(lat)
	out.layers["e2e.p99_ms"] = quantile(lat, 0.99)
	out.e2e["rss_mb"] = rss
	out.e2e["precision_at_100"] = qualitySet(ctx, o.seed, md.m)
	fmt.Fprintf(os.Stderr, "perfbench: jobs-tall: %d jobs (%d cycles of %d templates) in %.1f s, %.0f rows/s, job p50 %.3f s, daemon CPU %.1f s, generator CPU %.1f s\n",
		n, n/templates, templates, elapsed.Seconds(), rowsPerSec, median(lat)/1e3, daemonCPU, genCPU)

	out.layers["core.cache_hit_frac"] = hit
	out.layers["jobstore.submit_ms"] = median(submit)
	out.layers["jobstore.chunks"] = float64(chunks) / float64(n)
	out.layers["serving.cpu_s_per_req"] = daemonCPU / float64(n)
	out.layers["loadgen.cpu_s"] = genCPU
	if o.trace {
		return traceJobUploads(ctx, out, md, uploads[:traceJobs])
	}
	return nil
}

// runJob submits one upload and polls it until it reaches a terminal
// state.
func runJob(d *daemon, u jobUpload) jobRun {
	r := jobRun{upload: u}
	start := time.Now()
	code, body, err := d.post("/v1/jobs?name="+u.Name, "text/csv", u.Body)
	r.submit = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	_, st, err := splitJobReply(body)
	if err != nil || code != http.StatusAccepted {
		r.err = fmt.Errorf("submit %s: %d %s", u.Name, code, body)
		return r
	}
	for {
		code, body, err := d.do(http.MethodGet, "/v1/jobs/"+st.ID, "", nil)
		if err != nil || code != http.StatusOK {
			r.err = fmt.Errorf("poll job %s: %d %v %s", st.ID, code, err, body)
			return r
		}
		_, cur, err := splitJobReply(body)
		if err != nil {
			r.err = err
			return r
		}
		if cur.State != "queued" && cur.State != "running" {
			r.latency = time.Since(start)
			r.reply = body
			return r
		}
		time.Sleep(jobPoll)
	}
}

// checkJobs compares every job's reply with Model.DetectSource over the
// same bytes and chunk geometry, on a separately loaded model, nproc
// jobs at a time.
func checkJobs(ctx context.Context, o options, out *outcome, md *model, runs []jobRun) error {
	m, err := md.load()
	if err != nil {
		return err
	}
	errs := make([]error, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < o.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				errs[i] = checkJobRun(ctx, m, runs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			out.fail("job %d (%s): %v", i, runs[i].upload.Name, err)
		}
	}
	return nil
}

func checkJobRun(ctx context.Context, m *unidetect.Model, r jobRun) error {
	if r.err != nil {
		return r.err
	}
	src, err := colstore.NewCSVSource(r.upload.Name, bytes.NewReader(r.upload.Body), colstore.Options{ChunkRows: jobChunkRows})
	if err != nil {
		return err
	}
	fs, err := m.DetectSource(ctx, src)
	if err != nil {
		return err
	}
	return checkJob(r.reply, jobBody(fs))
}

// traceJobUploads replays uploads through the streaming path with spans
// around each chunk's decode and fold and around Finish, then breaks the
// detection down by layer: the per-column detectors chunk by chunk, the
// FD detectors over the whole table, as the scan runs them.
func traceJobUploads(ctx context.Context, out *outcome, md *model, uploads []jobUpload) error {
	tr := newTracer()
	rp, bare := newReplayer(md.parts), newReplayer(md.parts)
	rows := 0
	// one replays upload u, traced or not, each kind on its own scanner.
	// The two passes alternate upload by upload, and which goes first,
	// so warm-up and the host's drift fall on both.
	one := func(tr *tracer, rp *replayer, scanner *core.Predictor, u jobUpload) (time.Duration, error) {
		start := time.Now()
		root := tr.start(rootJob, -1, u.Name)
		src, err := colstore.NewCSVSource(u.Name, bytes.NewReader(u.Body), colstore.Options{ChunkRows: jobChunkRows})
		if err != nil {
			return 0, err
		}
		scan := scanner.NewSourceScan(u.Name)
		var chunks []*table.Table
		for {
			sp := tr.start("colstore.decode", root, u.Name)
			c, err := src.Next()
			tr.end(sp)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			if tr != nil {
				rows += c.Rows()
			}
			ct := c.Table(u.Name)
			chunks = append(chunks, ct)
			sp = tr.start("core.scan_fold", root, u.Name)
			scan.Fold(c)
			tr.end(sp)
		}
		sp := tr.start("core.scan_finish", root, u.Name)
		if _, err := scan.Finish(src.ColumnNames()); err != nil {
			return 0, err
		}
		tr.end(sp)
		for _, ct := range chunks {
			rp.replay(tr, root, u.Name, ct, columnDetectors)
		}
		sp = tr.start("replay.materialize", root, u.Name)
		whole, err := unidetect.ReadCSV(u.Name, bytes.NewReader(u.Body))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		rp.replay(tr, root, u.Name, whole, tableDetectors)
		tr.end(root)
		return time.Since(start), nil
	}
	scanners := [2]*core.Predictor{md.parts.predictor(1, false), md.parts.predictor(1, false)}
	for _, p := range scanners {
		p.Warm()
	}
	var traced, untraced time.Duration
	for i, u := range uploads {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				d, err := one(tr, rp, scanners[0], u)
				traced += d
				if err != nil {
					return err
				}
			} else {
				d, err := one(nil, bare, scanners[1], u)
				untraced += d
				if err != nil {
					return err
				}
			}
		}
	}
	lt := tr.layers()
	n := len(uploads)
	layerMetrics(out, lt, rp, n)
	out.layers["colstore.decode_ms"] = lt.ms("colstore.decode", n)
	out.layers["colstore.rows_per_s"] = float64(rows) / lt.self["colstore.decode"].Seconds()
	out.layers["core.scan_fold_ms"] = lt.ms("core.scan_fold", n)
	out.layers["core.scan_finish_ms"] = lt.ms("core.scan_finish", n)
	detectMS := lt.ms("core.scan_fold", n) + lt.ms("core.scan_finish", n)
	out.layers["core.detect_ms"] = detectMS
	out.layers["core.residual_ms"] = detectMS - measureMS(lt, n)
	out.layers["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	out.trace = tr

	// Allocations of one whole streaming scan per upload, decode included.
	scanner := md.parts.predictor(1, false)
	scanner.Warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range uploads {
		src, err := colstore.NewCSVSource(u.Name, bytes.NewReader(u.Body), colstore.Options{ChunkRows: jobChunkRows})
		if err != nil {
			return err
		}
		if _, err := scanner.DetectSource(ctx, src); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out.layers["core.allocs_per_table"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}
