// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public entry points — unidetect.Model.DetectAll,
// the real unidetectd binary over loopback, and its async /v1/jobs tier
// — checks every output against an oracle, and prints one JSON object
// of metrics as the last line of standard output:
//
//	perfbench -daemon <unidetectd binary> -workdir <dir> \
//	    --workload audit-fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a separate traced replay of the same
// inputs and writes the spans to the work directory. run.sh builds the
// daemon and this driver from source and supplies -daemon and -workdir.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/eval"
	"github.com/unidetect/unidetect/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric with its unit, in the order
// BENCHMARK.json lists them.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"p50_ms", "ms"},
	{"precision_at_100", "frac"},
	{"rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"detectors.spelling.ms", "ms"},
	{"detectors.outlier.ms", "ms"},
	{"detectors.uniqueness.ms", "ms"},
	{"detectors.fd.ms", "ms"},
	{"detectors.fdsynth.ms", "ms"},
	{"detectors.spelling.measurements", "count"},
	{"detectors.outlier.measurements", "count"},
	{"detectors.uniqueness.measurements", "count"},
	{"detectors.fd.measurements", "count"},
	{"detectors.fdsynth.measurements", "count"},
	{"detectors.spelling.valid_frac", "frac"},
	{"detectors.outlier.valid_frac", "frac"},
	{"detectors.uniqueness.valid_frac", "frac"},
	{"detectors.fd.valid_frac", "frac"},
	{"detectors.fdsynth.valid_frac", "frac"},
	{"lrindex.lookups", "count"},
	{"lrindex.ms", "ms"},
	{"lrindex.bucket_frac", "frac"},
	{"table.infer_ms", "ms"},
	{"core.cache_hit_frac", "frac"},
	{"core.detect_ms", "ms"},
	{"core.residual_ms", "ms"},
	{"core.allocs_per_table", "count"},
	{"core.rank_ms", "ms"},
	{"core.scan_fold_ms", "ms"},
	{"core.scan_finish_ms", "ms"},
	{"colstore.decode_ms", "ms"},
	{"colstore.rows_per_s", "rows/s"},
	{"jobstore.submit_ms", "ms"},
	{"jobstore.chunks", "count"},
	{"serving.overhead_ms", "ms"},
	{"serving.rejected", "count"},
	{"serving.cpu_s_per_req", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"loadgen.recheck_frac", "frac"},
	{"core.train_s", "s"},
	{"corpus.index_ms", "ms"},
	{"core.warm_ms", "ms"},
	{"e2e.p99_ms", "ms"},
	{"trace.residual_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// options are the run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string
	workdir  string
	procs    int // client goroutines and connections: nproc
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	e2e, layers       map[string]float64
	trace             *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

var workloads = map[string]func(context.Context, options, *outcome) error{
	"audit-fresh":   runAudit,
	"serve-recheck": runServe,
	"jobs-tall":     runJobs,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "audit-fresh, serve-recheck or jobs-tall")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced replay")
	flag.StringVar(&o.daemon, "daemon", "", "unidetectd binary")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for model files, job spools and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	o.procs = runtime.NumCPU()
	run, ok := workloads[o.workload]
	if !ok || o.daemon == "" || o.workdir == "" || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -workdir, --seconds > 0 and --workload audit-fresh|serve-recheck|jobs-tall")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		fatal(err)
	}
	o.workdir = dir
	env := environment()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v %v\n", o.workload, o.seed, o.seconds, o.trace, env)

	out := newOutcome()
	err = run(context.Background(), o, out)
	if err == nil && o.trace {
		err = out.trace.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), env)
	}
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	names, values := endToEnd, out.e2e
	if o.trace {
		names, values = perLayer, out.layers
	}
	for _, nu := range names {
		v, ok := values[nu[0]]
		if !ok {
			fatal(fmt.Errorf("workload %s did not measure %s", o.workload, nu[0]))
		}
		res.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpu, "go": runtime.Version()}
}

// model is the trained model of set-up, saved once for the daemon and
// the oracles.
type model struct {
	m     *unidetect.Model
	reg   *obs.Registry
	saved []byte
	path  string
	parts parts
}

// setupRounds is how many times set-up runs; setup_s is the median.
const setupRounds = 3

// setUp trains the model on the WEB background corpus and warms it, then
// saves it and boots (and warms) the daemon when the workload has one.
// It repeats that setupRounds times and keeps the last model and daemon.
// workers is the model's Options.Workers (0: GOMAXPROCS). Generating the
// corpus is input generation and is not timed.
func setUp(o options, out *outcome, workers int, daemonArgs []string) (*model, *daemon, error) {
	bg := trainingCorpus()
	warm := newStream(-1, streamWeb, "warm", webSpec).nextBatch(8)
	var setup, train, warmMS, index []float64
	var md *model
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, nil, err
			}
			d = nil
		}
		runtime.GC()
		start := time.Now()
		reg := obs.NewRegistry()
		m, err := unidetect.Train(context.Background(), bg, &unidetect.Options{Obs: reg, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		train = append(train, time.Since(start).Seconds())
		t0 := time.Now()
		m.Warm()
		warmMS = append(warmMS, float64(time.Since(t0))/1e6)
		md = &model{m: m, reg: reg}
		if daemonArgs != nil {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				return nil, nil, err
			}
			md.saved = buf.Bytes()
			md.path = filepath.Join(o.workdir, "model.bin")
			if err := os.WriteFile(md.path, md.saved, 0o644); err != nil {
				return nil, nil, err
			}
			if d, err = startDaemon(o, append([]string{"-model", md.path}, daemonArgs...)); err != nil {
				return nil, nil, err
			}
			for _, t := range warm.Tables {
				if _, _, err := d.post("/v1/detect?name="+t.Name, "text/csv", encodeCSV(t)); err != nil {
					d.stop()
					return nil, nil, fmt.Errorf("warm daemon: %w", err)
				}
			}
		}
		setup = append(setup, time.Since(start).Seconds())
		t0 = time.Now()
		corpus.New("index", bg).Index()
		index = append(index, float64(time.Since(t0))/1e6)
	}
	if md.saved == nil {
		var buf bytes.Buffer
		if err := md.m.Save(&buf); err != nil {
			return nil, nil, err
		}
		md.saved = buf.Bytes()
	}
	p, err := loadParts(md.saved)
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, nil, err
	}
	md.parts = p
	out.e2e["setup_s"] = median(setup)
	out.layers["core.train_s"] = median(train)
	out.layers["core.warm_ms"] = median(warmMS)
	out.layers["corpus.index_ms"] = median(index)
	return md, d, nil
}

// load reads the saved model back, as the daemon does: the oracles run
// on this independent instance.
func (md *model) load() (*unidetect.Model, error) {
	return unidetect.Load(bytes.NewReader(md.saved), nil)
}

// precisionAt100 is Precision@100 of ranked findings against the
// injected labels, judged by internal/eval.
func precisionAt100(fs []unidetect.Finding, labels []datagen.Label) float64 {
	items := make([]eval.Item, len(fs))
	for i, f := range fs {
		items[i] = eval.Item{Table: f.Table, Column: f.Column, Rows: f.Rows}
	}
	return eval.PrecisionAtK(items, eval.NewLabels(labels), []int{100})[0]
}

// qualityBatches is the fixed quality set: the first 32 batches of 64
// WEB tables of the run's stream, whatever the run length.
const qualityBatches = 32

// qualitySet computes precision_at_100 as the mean over the quality
// set's batches of DetectAll's Precision@100.
func qualitySet(ctx context.Context, seed int64, m *unidetect.Model) float64 {
	web := newWebStream(seed)
	var sum float64
	for b := 0; b < qualityBatches; b++ {
		bt := web.nextBatch(batchTables)
		sum += precisionAt100(m.DetectAll(ctx, bt.Tables), bt.Labels)
	}
	return sum / qualityBatches
}

// cacheHitFrac reads the memo cache's hit ratio from a metrics registry
// exposition.
func cacheHitFrac(prom string) (float64, error) {
	fams, err := obs.ParseProm(prom)
	if err != nil {
		return 0, err
	}
	hit, _ := obs.Sample(fams, "unidetect_predict_measure_cache_total", map[string]string{"result": "hit"})
	miss, _ := obs.Sample(fams, "unidetect_predict_measure_cache_total", map[string]string{"result": "miss"})
	if hit.Value+miss.Value == 0 {
		return 0, nil
	}
	return hit.Value / (hit.Value + miss.Value), nil
}

// blockQueue hands out input indexes to concurrent clients in order, a
// block at a time: a new block starts only while, at the pace of the
// last one, it would end within the measured window. A run so holds
// whole blocks — whole cycles of templates, the same mix of heavy and
// light inputs however far it got — and at least one. Near the window
// the count of blocks does not flip with the host's speed, as it would
// if blocks started until the window ended.
type blockQueue struct {
	mu                 sync.Mutex
	next, first, limit int
	block              int
	end                time.Time
	blockStart         time.Time
}

func (q *blockQueue) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.next - q.first; n%q.block == 0 && q.next < q.limit {
		now := time.Now()
		if n > 0 && now.Add(now.Sub(q.blockStart)).After(q.end) {
			q.limit = q.next
		}
		q.blockStart = now
	}
	if q.next >= q.limit {
		return 0, false
	}
	q.next++
	return q.next - 1, true
}

// resetPeakRSS restarts the kernel's peak-RSS counter of this process,
// so rss_mb covers the measured phase rather than set-up.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the lifetime peak
}

// peakRSSMB reads VmHWM of process pid ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", pid)
}

// selfCPU is this process's CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// layerMetrics fills the per-layer metrics a replay produced, per table
// replayed, plus zeros for layers the workload does not exercise.
func layerMetrics(out *outcome, lt layerTimes, rp *replayer, tables int) {
	for cls, name := range detectorNames {
		out.layers["detectors."+name+".ms"] = lt.ms("detectors."+name, tables)
		out.layers["detectors."+name+".measurements"] = float64(rp.measurements[cls]) / float64(tables)
		out.layers["detectors."+name+".valid_frac"] = rp.validFrac(core.Class(cls))
	}
	out.layers["lrindex.lookups"] = float64(rp.lookups) / float64(tables)
	out.layers["lrindex.ms"] = lt.ms("lrindex", tables)
	out.layers["lrindex.bucket_frac"] = 0
	if rp.lookups > 0 {
		out.layers["lrindex.bucket_frac"] = float64(rp.bucketHits) / float64(rp.lookups)
	}
	out.layers["table.infer_ms"] = lt.ms("table.infer", tables)
	out.layers["core.rank_ms"] = lt.ms("core.rank", tables)
	out.layers["trace.residual_frac"] = 0
	if lt.total > 0 {
		var residual time.Duration
		for name, d := range lt.self {
			if isRoot(name) {
				residual += d
			}
		}
		out.layers["trace.residual_frac"] = float64(residual) / float64(lt.total)
	}
	for _, nu := range perLayer {
		if _, ok := out.layers[nu[0]]; !ok {
			out.layers[nu[0]] = 0
		}
	}
}

// Root span names: one per batch, request or job of a replay.
const (
	rootBatch   = "replay.batch"
	rootRequest = "replay.request"
	rootJob     = "replay.job"
)

func isRoot(name string) bool { return name == rootBatch || name == rootRequest || name == rootJob }

// measureMS is the layers' share of detection per table: type
// inference, every detector's measurement and the LR lookups.
func measureMS(lt layerTimes, tables int) float64 {
	sum := lt.ms("table.infer", tables) + lt.ms("lrindex", tables)
	for _, name := range detectorNames {
		sum += lt.ms("detectors."+name, tables)
	}
	return sum
}
