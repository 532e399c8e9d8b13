// Command perfbench is the repository's benchmark: one command, three
// workloads (recover, churn, flood), end-to-end metrics from
// untraced runs and per-layer metrics from a separate traced run.
//
// It drives the public selfstab API and the internal/* package entry
// points from outside the program and times the calls into each layer;
// the only tracing it uses is the probe plane attached through
// Network.AttachProbe. Run it from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this
// directory for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks every world and window (1 = the benchmark proper).
	// The tests run each workload at toy scale.
	scale float64
	// out is the directory for traces and the determinism record.
	out string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's metrics, simulated values and check
// failures. Workloads write into it; run prints it.
type bench struct {
	opt   options
	log   io.Writer
	tr    *tracer // nil in untraced runs
	e2e   map[string]metric
	layer map[string]metric
	// sim holds the simulated outcomes of the run, formatted exactly; the
	// determinism guard compares them across runs and worker counts.
	sim       map[string]string
	attempted int64
	failed    int64
	failures  []string
}

func newBench(opt options, log io.Writer) *bench {
	b := &bench{
		opt: opt, log: log,
		e2e:   map[string]metric{},
		layer: map[string]metric{},
		sim:   map[string]string{},
	}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

// endToEnd records an end-to-end metric (reported by untraced runs).
func (b *bench) endToEnd(name, unit string, v float64) { b.e2e[name] = metric{v, unit} }

// logValue prints a figure that is not a manifest metric on the run's log.
func (b *bench) logValue(name, unit string, v float64) {
	fmt.Fprintf(b.log, "%-28s %14.6g %s (log only)\n", name, v, unit)
}

// perLayer records a per-layer metric (reported by traced runs).
func (b *bench) perLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// check records a correctness failure; nil is a pass.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.failures = append(b.failures, what+": "+err.Error())
		fmt.Fprintf(b.log, "CHECK FAILED %s: %v\n", what, err)
	}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "operation failed: %v\n", err)
	}
	return err
}

// simValue records a simulated outcome for the determinism guard.
func (b *bench) simValue(name string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		b.check("sim value "+name, err)
		return
	}
	b.sim[name] = string(raw)
}

// setupDone records setup_s: the process's CPU time from its start until
// the timed window opens, so one cold set-up per process.
func (b *bench) setupDone() {
	b.endToEnd("setup_s", "s", cpuNow().Seconds())
}

// heap records live_heap_mb: heap in use after a forced collection.
func (b *bench) heap() {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	b.endToEnd("live_heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20))
}

// endToEndUnits are the end-to-end metrics, with their units, that every
// untraced run reports on every workload; BENCHMARK.json lists the same.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"op_ms":        "ms",
	"restore_s":    "s",
	"snapshot_kb":  "KB",
	"live_heap_mb": "MB",
}

// perLayerUnits are the per-layer metrics, with their units, that every
// traced run reports on every workload; BENCHMARK.json lists the same. A
// layer the workload does not exercise reads 0 (recover attaches no
// traffic or energy; only churn compacts, and only churn's traced run
// serves its world).
var perLayerUnits = map[string]string{
	"topology.build_ms":         "ms",
	"engine.churn_ms":           "ms",
	"engine.frame_ms":           "ms",
	"engine.halo_ms":            "ms",
	"engine.ingest_ms":          "ms",
	"engine.frontier_nodes":     "nodes",
	"engine.exec_nodes":         "nodes",
	"engine.dense_fallbacks":    "steps",
	"engine.exec_per_alive":     "ratio",
	"engine.halo_cross":         "count",
	"routing.rebuild_ms":        "ms",
	"routing.lookup_us":         "us",
	"routing.rebuilds":          "count",
	"traffic.phase_ms":          "ms",
	"traffic.forwarded":         "packets",
	"traffic.queue_occupancy":   "packets",
	"traffic.admission_rejects": "packets",
	"energy.phase_ms":           "ms",
	"compact.phase_ms":          "ms",
	"compact.count":             "count",
	"snapshot.encode_ms":        "ms",
	"snapshot.decode_ms":        "ms",
	"snapshot.replay_steps":     "steps",
	"snapshot.ops":              "ops",
	"cluster.stats_ms":          "ms",
	"cluster.verify_ms":         "ms",
	"serve.clusters_ms":         "ms",
	"serve.node_ms":             "ms",
	"serve.stats_ms":            "ms",
	"serve.metrics_ms":          "ms",
	"serve.inject_ms":           "ms",
	"serve.step_hold_ms":        "ms",
	"serve.lock_share":          "ratio",
	"serve.gen_lag_ms":          "ms",
	"serve.req_p50_ms":          "ms",
	"serve.req_p90_ms":          "ms",
	"obs.overhead_ratio":        "ratio",
}

// reported returns the metrics a run prints: exactly the manifest's
// end-to-end (untraced) or per-layer (traced) set. An end-to-end metric
// must be measured and positive; a per-layer one the workload did not
// report reads 0. Anything else is an error in the benchmark.
func reported(got map[string]metric, want map[string]string, fill bool) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok && fill:
			m = metric{0, unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return nil, fmt.Errorf("metric %s in %s, want %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (!fill && m.Value == 0):
			return nil, fmt.Errorf("metric %s = %v", name, m.Value)
		}
		out[name] = m
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return out, nil
}

var workloads = map[string]func(*bench) error{
	"recover": runRecover,
	"churn":   runChurn,
	"flood":   runFlood,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code. The result
// line is printed only when the run completed; a failed check prints it
// with correct=false and exits 1.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, hostLine())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%v scale=%g\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.scale)
	b := newBench(opt, stdout)
	if err := workloads[opt.workload](b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.check("determinism across runs", guardAcrossRuns(opt, b.sim))
	metrics, err := reported(b.e2e, endToEndUnits, false)
	if opt.trace {
		metrics, err = reported(b.layer, perLayerUnits, true)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation attempted")
		return 1
	}
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "recover, churn or flood")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.IntVar(&opt.seconds, "seconds", 12, "length of the measured window (sets the window's work on recover, churn and flood)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.Float64Var(&opt.scale, "scale", 1, "world and window scale (1 = the benchmark proper)")
	fs.StringVar(&opt.out, "out", filepath.Join("perfbench", "out"), "directory for traces and the determinism record")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 || opt.seconds > 60 {
		return opt, fmt.Errorf("seconds %d outside [1, 60]", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("trace %d is not 0 or 1", trace)
	}
	if !(opt.scale > 0 && opt.scale <= 1) {
		return opt, fmt.Errorf("scale %v outside (0, 1]", opt.scale)
	}
	opt.trace = trace == 1
	return opt, nil
}

// hostLine names the host every figure was taken on.
func hostLine() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s",
		cpu, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version())
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// guardAcrossRuns compares this run's simulated values with those an
// earlier run of the same workload, seed, window and scale recorded, and
// records them when none exists. Traced and untraced runs share the
// record, so it also pins probe-on ≡ probe-off.
func guardAcrossRuns(opt options, sim map[string]string) error {
	if len(sim) == 0 {
		return nil
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.out, fmt.Sprintf("sim-%s-seed%d-s%d-x%g.json", opt.workload, opt.seed, opt.seconds, opt.scale))
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		enc, err := json.MarshalIndent(sim, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, enc, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]string
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return diffSim(prev, sim)
}

// diffSim names the first simulated value that differs between a and b.
func diffSim(a, b map[string]string) error {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if a[k] != b[k] {
			return fmt.Errorf("simulated value %s differs: %s vs %s", k, clip(a[k]), clip(b[k]))
		}
	}
	return nil
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuNow is the CPU time the process has run so far, over all its
// threads (the engine's workers and the collector's too). Time the
// hypervisor steals from a shared host is not in it, so the cost of a
// fixed piece of work reads the same however busy the host's neighbours
// are; wall time can double on a run where half the CPU is stolen.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scaled returns max(min, round(v*scale)).
func scaled(v int, scale float64, min int) int {
	return max(min, int(math.Round(float64(v)*scale)))
}
