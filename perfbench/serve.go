package main

// serve.go is the serve-recheck workload: the interactive path through
// HTTP, tenants, decode, detect and JSON on the real daemon. An
// open-loop Poisson phase at a fixed rate, well under capacity, gives
// the latency figures; a closed-loop phase with nproc clients gives the
// saturated throughput. The request mix re-checks earlier tables with
// their injected cells restored, so the memo cache runs at a measured,
// realistic hit ratio, and its 5% of tall tables set the tail.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/table"
)

const (
	openRate   = 250.0 // requests per second of the open-loop phases
	openCycles = 16    // mix cycles per open-loop phase: each tall template once
	rounds     = 4     // open-loop then saturation, this many times
	minSatSecs = 0.5   // shortest saturation phase
	satPerSec  = 2000  // requests generated per second of saturation phase
	traceReqs  = 512   // requests the traced replay covers
	reqTimeout = 30 * time.Second
)

// reply is what one request got back.
type reply struct {
	code    int
	body    []byte
	err     error
	latency time.Duration // from due time (open loop) or send (closed loop) to reply
	service time.Duration // from send to reply
	late    time.Duration // how late the generator dispatched it
}

// phase is one open-loop or saturation stretch of a round.
type phase struct {
	from, to int // request indexes sent in the phase
	elapsed  time.Duration
}

func runServe(ctx context.Context, o options, out *outcome) error {
	md, d, err := setUp(o, out, 0, []string{"-req-timeout", reqTimeout.String()})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// Every open-loop phase sends the same number of whole mix cycles
	// from its own stream, so each holds every tall template once and
	// what it sends does not depend on how far saturation got. The
	// saturation phases draw from a second stream, fill the rest of the
	// round and end on blocks of the same size.
	nOpen := openCycles * len(mixCycle)
	satSecs := max(o.seconds/rounds-float64(nOpen)/openRate, minSatSecs)
	reqs := serveRequests(o.seed, partOpen, rounds*nOpen)
	satFrom := len(reqs)
	nSat := int(rounds*satSecs*satPerSec) / nOpen * nOpen // whole blocks
	reqs = append(reqs, serveRequests(o.seed, partSaturate, nSat)...)
	replies := make([]reply, len(reqs))
	rng := rand.New(rand.NewSource(mix(o.seed, streamServe, 1)))

	cpu0, gen0 := d.cpu(), selfCPU()
	var opens, sats []phase
	next := satFrom
	for r := 0; r < rounds; r++ {
		opens = append(opens, openLoop(d, o.procs, reqs, replies, r*nOpen, nOpen, rng))
		sat := saturate(d, o.procs, reqs, replies, next, time.Duration(satSecs*float64(time.Second)))
		sats = append(sats, sat)
		next = sat.to
	}
	daemonCPU, genCPU := d.cpu()-cpu0, selfCPU()-gen0
	sent := next // the open-loop requests, then the saturation requests sent
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

	// The latency percentiles pool the open-loop samples of all rounds.
	// Every round sends the same mix, so the saturated rate is the median
	// over the rounds, and one round slowed by the host does not set it.
	var lat, late, satRates []float64
	for r, ph := range opens {
		for i := ph.from; i < ph.to; i++ {
			lat = append(lat, float64(replies[i].latency)/1e6)
			late = append(late, float64(replies[i].late)/1e6)
		}
		cells := 0
		for i := sats[r].from; i < sats[r].to; i++ {
			cells += reqs[i].Cells
		}
		satRates = append(satRates, float64(cells)/sats[r].elapsed.Seconds())
	}
	rejected, rechecks := 0, 0
	for i := 0; i < sent; i++ {
		r := replies[i]
		if r.code == http.StatusUnauthorized || r.code == http.StatusTooManyRequests || r.code == http.StatusServiceUnavailable {
			rejected++
		}
		if reqs[i].Kind == kindRecheck {
			rechecks++
		}
	}
	out.attempted = sent
	detectTimes, err := checkReplies(ctx, o, out, md, reqs[:sent], replies[:sent])
	if err != nil {
		return err
	}
	satReqs := 0
	var satTime time.Duration
	for _, ph := range sats {
		satReqs += ph.to - ph.from
		satTime += ph.elapsed
	}
	out.e2e["p50_ms"] = median(lat)
	out.layers["e2e.p99_ms"] = quantile(lat, 0.99)
	out.e2e["cells_per_s"] = median(satRates)
	out.e2e["rss_mb"] = rss
	out.e2e["precision_at_100"] = qualitySet(ctx, o.seed, md.m)
	fmt.Fprintf(os.Stderr, "perfbench: serve-recheck: %d open-loop samples in %d rounds at %.0f/s (p50 %.3f ms, p99 %.3f ms), "+
		"saturation %.0f req/s over %d requests, re-check share %.3f, cache hit ratio %.4f, generator late p99 %.3f ms\n",
		len(lat), rounds, openRate, out.e2e["p50_ms"], out.layers["e2e.p99_ms"], float64(satReqs)/satTime.Seconds(), satReqs,
		float64(rechecks)/float64(sent), hit, quantile(late, 0.99))

	out.layers["core.cache_hit_frac"] = hit
	out.layers["serving.rejected"] = float64(rejected)
	out.layers["serving.cpu_s_per_req"] = daemonCPU / float64(sent)
	out.layers["loadgen.late_p99_ms"] = quantile(late, 0.99)
	out.layers["loadgen.cpu_s"] = genCPU
	out.layers["loadgen.recheck_frac"] = float64(rechecks) / float64(sent)
	if o.trace {
		var overhead []float64
		for _, ph := range opens {
			for i := ph.from; i < ph.to; i++ {
				overhead = append(overhead, float64(replies[i].service-detectTimes[i])/1e6)
			}
		}
		out.layers["serving.overhead_ms"] = median(overhead)
		return traceServe(ctx, out, md, reqs[:sent])
	}
	return nil
}

// openLoop sends requests [from, from+n) at Poisson arrival times of
// rate openRate. The dispatcher never blocks: each request waits for one
// of the procs connection slots on its own goroutine, and that wait
// counts in its latency, which runs from the due time. Lateness is only
// how late the dispatcher woke.
func openLoop(d *daemon, procs int, reqs []request, replies []reply, from, n int, rng *rand.Rand) phase {
	slots := make(chan struct{}, procs)
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for i := from; i < from+n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			replies[i] = send(d, reqs[i], due)
			replies[i].late = late
		}(i, due)
	}
	wg.Wait()
	return phase{from: from, to: from + n, elapsed: time.Since(start)}
}

// saturate runs procs clients back to back from request from on, for
// whole blocks of mix cycles that fit in dur, or until the generated
// requests run out.
func saturate(d *daemon, procs int, reqs []request, replies []reply, from int, dur time.Duration) phase {
	start := time.Now()
	q := &blockQueue{next: from, first: from, limit: len(reqs), block: openCycles * len(mixCycle), end: start.Add(dur)}
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := q.take(); ok; i, ok = q.take() {
				replies[i] = send(d, reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return phase{from: from, to: q.next, elapsed: time.Since(start)}
}

// send posts one request and times it.
func send(d *daemon, r request, due time.Time) reply {
	sentAt := time.Now()
	code, body, err := d.do(http.MethodPost, "/v1/detect?name="+url.QueryEscape(r.Name), "text/csv", r.Body)
	now := time.Now()
	return reply{code: code, body: body, err: err, latency: now.Sub(due), service: now.Sub(sentAt)}
}

// checkReplies compares every reply with in-process Model.Detect on the
// same bytes, in request order on a separately loaded model. It returns
// each request's in-process decode plus detect time.
func checkReplies(ctx context.Context, o options, out *outcome, md *model, reqs []request, replies []reply) ([]time.Duration, error) {
	m, err := md.load()
	if err != nil {
		return nil, err
	}
	times := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		rep := replies[i]
		start := time.Now()
		t, err := unidetect.ReadCSV(r.Name, bytes.NewReader(r.Body))
		if err != nil {
			return nil, fmt.Errorf("decode request %d: %w", i, err)
		}
		fs := m.Detect(ctx, t)
		times[i] = time.Since(start)
		switch {
		case rep.err != nil:
			out.fail("request %d (%s): %v", i, r.Name, rep.err)
		case rep.code != http.StatusOK:
			out.fail("request %d (%s): status %d: %s", i, r.Name, rep.code, bytes.TrimSpace(rep.body))
		default:
			if err := checkServe(rep.body, detectBody(r.Name, fs)); err != nil {
				out.fail("request %d (%s, %s): %v", i, r.Name, kindNames[r.Kind], err)
			}
		}
	}
	return times, nil
}

// traceServe replays the first requests through decode, the layers
// and the reply encoding, once traced and once untraced, then times a
// one-worker DetectAll over the same requests in order.
func traceServe(ctx context.Context, out *outcome, md *model, reqs []request) error {
	if len(reqs) > traceReqs {
		reqs = reqs[:traceReqs]
	}
	tr := newTracer()
	rp, bare := newReplayer(md.parts), newReplayer(md.parts)
	rows := 0
	// one replays request i, traced or not. The two passes alternate
	// request by request, and which goes first, so warm-up and the
	// host's drift fall on both.
	one := func(tr *tracer, rp *replayer, i int) (time.Duration, error) {
		r := reqs[i]
		start := time.Now()
		id := fmt.Sprintf("req-%d", i)
		root := tr.start(rootRequest, -1, id)
		sp := tr.start("colstore.decode", root, id)
		t, err := unidetect.ReadCSV(r.Name, bytes.NewReader(r.Body))
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("decode request %d: %w", i, err)
		}
		if tr != nil {
			rows += t.NumRows()
		}
		fs := rp.replay(tr, root, id, t, allDetectors)
		sp = tr.start("serving.encode", root, id)
		reply := detectReply{Table: r.Name, Findings: []findingJSON{}}
		for _, f := range fs {
			reply.Findings = append(reply.Findings, findingJSON{Class: f.Class.String(), Column: f.Column,
				Rows: f.Rows, Values: f.Values, Score: f.LR, Detail: f.Detail})
		}
		encodeJSONLine(reply)
		tr.end(sp)
		tr.end(root)
		return time.Since(start), nil
	}
	var traced, untraced time.Duration
	for i := range reqs {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				d, err := one(tr, rp, i)
				traced += d
				if err != nil {
					return err
				}
			} else {
				d, err := one(nil, bare, i)
				untraced += d
				if err != nil {
					return err
				}
			}
		}
	}
	groups := make([][]*table.Table, len(reqs))
	for i, r := range reqs {
		t, err := unidetect.ReadCSV(r.Name, bytes.NewReader(r.Body))
		if err != nil {
			return err
		}
		groups[i] = []*table.Table{t}
	}
	lt := tr.layers()
	n := len(reqs)
	layerMetrics(out, lt, rp, n)
	out.layers["colstore.decode_ms"] = lt.ms("colstore.decode", n)
	out.layers["colstore.rows_per_s"] = float64(rows) / lt.self["colstore.decode"].Seconds()
	detectMS, allocs := serialDetect(ctx, md, groups)
	out.layers["core.detect_ms"] = detectMS
	out.layers["core.residual_ms"] = detectMS - measureMS(lt, n)
	out.layers["core.allocs_per_table"] = allocs
	out.layers["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	out.trace = tr
	return nil
}
