// Command bench is epnet's end-to-end benchmark. It runs four
// workloads — the cmd/experiments harness, the paper's 3,375-host
// system, the 32k-host smoke run and the chaos scenario with every
// observer attached — each repetition as a fresh child process, checks
// every output, and reports host time and host memory per workload.
// With -trace 1 it adds one traced repetition per workload and reports
// per-layer costs, a ledger that sets them against the traced wall time,
// and the tracing overhead, and writes the spans it recorded.
//
// Run it from the repository root through bench/run.sh, which builds
// the benchmark and cmd/experiments from source first:
//
//	bash bench/run.sh                                  # all workloads, interleaved
//	bash bench/run.sh -workload paper3k -seed 2 -seconds 20
//	bash bench/run.sh -trace 1                         # per-layer ledger and spans
//	bash bench/run.sh -compare A.jsonl B.jsonl         # regression verdicts
//
// Standard output is JSON Lines ending in one result object; standard
// error carries aligned tables. bench/README.md documents every metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// buildDir holds everything building and running the benchmark leaves
// behind: binaries, the Go build cache, scratch files and spans.
const buildDir = ".bench_build"

// repTimeout bounds one repetition; a repetition that overruns it is
// killed and counts as failed.
const repTimeout = 120 * time.Second

// experimentsBin is the cmd/experiments binary bench/run.sh builds, and
// golden the harness stdout expected at seed 1, both relative to the
// repository root the benchmark runs from.
const (
	experimentsBin = buildDir + "/experiments"
	golden         = "results/experiments_default.txt"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, interleaved round-robin)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload: repetitions start while less has been spent")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced repetition per workload and reports per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file, Chrome trace_event JSON (default "+buildDir+"/trace-<workload>-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare A.jsonl B.jsonl")
	child := fs.String("child", "", "internal: run one repetition of this workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		bad, err := compareReports(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if bad > 0 {
			return 1
		}
		return 0
	case *child != "":
		return childMain(*child, o, stdout, stderr)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	sel := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sel = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b := &bench{o: o, self: self, stderr: stderr}
	if o.trace == 1 {
		b.tr = &tracer{}
	}
	return b.run(sel, stdout)
}

// childMain runs one repetition in this process and prints its result
// as one JSON line; a failure is reported in the result's Err.
func childMain(name string, o options, stdout, stderr io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	scratch := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var r repResult
	if o.trace == 1 {
		r, err = runTraced(w, o.seed, scratch)
	} else {
		r, err = runRep(w, o.seed, scratch)
	}
	if err != nil {
		r.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// bench runs the selected workloads and reports them.
type bench struct {
	o      options
	self   string
	stderr io.Writer
	tr     *tracer
	nrep   int // repetitions started, numbering spans
}

// wlRun is one workload's repetitions within a run.
type wlRun struct {
	w         workload
	reps      []repResult
	attempted int
	failed    int
	spent     float64
	traced    *repResult // the traced repetition (-trace 1)
}

func (b *bench) run(sel []workload, stdout io.Writer) int {
	names := make([]string, len(sel))
	runs := make([]*wlRun, len(sel))
	for i, w := range sel {
		names[i] = w.name
		runs[i] = &wlRun{w: w}
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(header{Kind: "header", CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: revision(), Seed: b.o.seed, Seconds: b.o.seconds,
		Trace: b.o.trace, Workloads: names})

	// Repetitions run one at a time, round-robin across workloads, so
	// drift on a shared machine hits every workload alike. A workload
	// starts another repetition while it has spent less than -seconds.
	for more := true; more; {
		more = false
		for _, r := range runs {
			if r.attempted > 0 && r.spent >= b.o.seconds {
				continue
			}
			more = true
			t0 := time.Now()
			rep, err := b.rep(r, false)
			r.spent += time.Since(t0).Seconds()
			if err != nil {
				b.fail(r, err)
				continue
			}
			r.reps = append(r.reps, rep)
		}
	}
	for _, r := range runs {
		var dropped int
		r.reps, dropped = agree(r.reps)
		for i := 0; i < dropped; i++ {
			b.fail(r, errors.New("output digest differs from the first repetition's"))
		}
		if b.o.trace == 1 {
			b.traceRun(r)
		}
	}

	// The result carries the end-to-end metrics untraced and the
	// per-layer metrics traced; the JSON Lines carry both.
	var lines []line
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range runs {
		enc.Encode(repsLine{Kind: "reps", Workload: r.w.name, Attempted: r.attempted, Failed: r.failed})
		res.Attempted += r.attempted
		res.Failed += r.failed
		wl := make([]line, 0, len(endToEnd)+len(perLayer))
		for _, m := range endToEnd {
			wl = append(wl, metricLine(r.w.name, m, values(r.reps, m.rep)))
		}
		if r.traced != nil {
			for _, m := range perLayer {
				wl = append(wl, metricLine(r.w.name, m, []float64{r.traced.Layers[m.name]}))
			}
		}
		for _, l := range wl {
			enc.Encode(l)
		}
		resLines := wl[:len(endToEnd)]
		if b.o.trace == 1 {
			resLines = wl[len(endToEnd):]
		}
		for _, l := range resLines {
			if l.N == 0 {
				continue
			}
			key := l.Metric
			if len(runs) > 1 {
				key = r.w.name + "/" + l.Metric
			}
			res.Metrics[key] = metricValue{Value: l.Value, Unit: l.Unit}
		}
		lines = append(lines, wl...)
	}
	writeTable(b.stderr, lines)
	for _, r := range runs {
		if r.traced != nil {
			b.writeLedger(r)
		}
	}
	if b.tr != nil {
		path := b.o.traceOut
		if path == "" {
			name := b.o.workload
			if name == "" {
				name = "all"
			}
			path = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", name, b.o.seed))
		}
		if err := b.tr.writeChrome(path); err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			res.Failed++
		} else {
			fmt.Fprintf(b.stderr, "spans: %d written to %s\n", len(b.tr.spans), path)
		}
	}
	want := len(endToEnd)
	if b.o.trace == 1 {
		want = len(perLayer)
	}
	res.Correct = res.Failed == 0 && len(res.Metrics) == want*len(runs)
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// fail records a failed repetition of r.
func (b *bench) fail(r *wlRun, err error) {
	r.failed++
	fmt.Fprintf(b.stderr, "bench: %s: repetition failed: %v\n", r.w.name, err)
}

// agree keeps the repetitions whose output digest matches the first
// one's and returns how many it dropped: a run is deterministic, so any
// difference is a failure.
func agree(reps []repResult) (kept []repResult, dropped int) {
	for _, r := range reps {
		if r.Digest != reps[0].Digest {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	return kept, dropped
}

// rep runs one repetition of r's workload: the experiments binary for
// the harness, a child process of this binary otherwise.
func (b *bench) rep(r *wlRun, traced bool) (repResult, error) {
	b.nrep++
	r.attempted++
	id := b.tr.begin(fmt.Sprintf("rep %s #%d", r.w.name, b.nrep), 0)
	defer b.tr.end(id)
	if r.w.harness && !traced {
		return b.harnessRep(r.w, id)
	}
	return b.childRep(r.w, traced, id)
}

// harnessRep times cmd/experiments from exec to exit and checks its
// stdout, then measures the harness's per-simulation set-up.
func (b *bench) harnessRep(w workload, parent int) (repResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, experimentsBin,
		"-parallel", strconv.Itoa(runtime.NumCPU()), "-seed", strconv.FormatInt(b.o.seed, 10))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var err error
	wall := b.tr.timed("exec experiments", parent, func() { err = cmd.Run() })
	if err != nil {
		return repResult{}, fmt.Errorf("experiments: %v: %s", err, lastLine(errOut.Bytes()))
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return repResult{}, errors.New("experiments: no resource usage")
	}
	sum := sha256.Sum256(out.Bytes())
	r := repResult{WallS: wall.Seconds(), RSSMB: rusageMB(ru), CPUS: rusageCPU(ru), Digest: hex.EncodeToString(sum[:])}
	if b.o.seed == 1 {
		want, err := os.ReadFile(golden)
		if err != nil {
			return r, err
		}
		if !bytes.Equal(out.Bytes(), want) {
			return r, fmt.Errorf("experiments stdout differs from %s", golden)
		}
	}
	cfg, err := w.config(b.o.seed)
	if err != nil {
		return r, err
	}
	builds, err := measureSetup(cfg, b.tr, parent)
	if err != nil {
		return r, err
	}
	r.SetupS = medianBuild(builds, setupSeconds)
	return r, nil
}

// childRep runs one repetition of w as a child process of this binary.
func (b *bench) childRep(w workload, traced bool, parent int) (repResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, b.self, "-child", w.name, "-seed", strconv.FormatInt(b.o.seed, 10), "-trace", trace)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("child: %v: %s", err, lastLine(errOut.Bytes()))
	}
	var r repResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return repResult{}, fmt.Errorf("child output: %w", err)
	}
	if r.Err != "" {
		return repResult{}, errors.New(r.Err)
	}
	b.tr.adopt(r.Spans, parent, b.nrep)
	r.Spans = nil
	return r, nil
}

// traceRun adds the traced repetition of one workload. For the harness
// that is one more timed experiments run plus a traced child that
// profiles the harness's evaluation base and times each experiment.
func (b *bench) traceRun(r *wlRun) {
	var exec *repResult
	if r.w.harness {
		e, err := b.rep(r, false)
		if err != nil {
			b.fail(r, err)
			return
		}
		exec = &e
	}
	t, err := b.rep(r, true)
	if err != nil {
		b.fail(r, err)
		return
	}
	if len(r.reps) == 0 {
		b.fail(r, errors.New("no untraced repetition to set the traced one against"))
		return
	}
	digest := t.Digest
	if exec != nil {
		digest = exec.Digest
	}
	if digest != r.reps[0].Digest {
		b.fail(r, errors.New("traced output digest differs from the untraced repetitions'"))
		return
	}
	addParentLayers(&t, r.reps, exec)
	r.traced = &t
}

// addParentLayers completes a traced repetition's layer table with what
// only the parent sees: CPU use of the run the user waits on (for the
// harness, the experiments run exec), the tracing overhead against the
// untraced repetitions, and the ledger residual.
func addParentLayers(t *repResult, reps []repResult, exec *repResult) {
	wall, cpu := t.WallS, t.CPUS
	if exec != nil {
		wall, cpu = exec.WallS, exec.CPUS
	}
	L := t.Layers
	L["parallel.cpu_s"] = cpu
	L["parallel.cpu_util"] = cpu / (wall * float64(runtime.NumCPU())) * 100
	L["trace.overhead_s"] = wall - medianOf(values(reps, wallOf))
	lg := ledger(medianOf(values(reps, setupOf)), *t)
	L["ledger.residual_s"] = lg.residual
	L["ledger.residual_pct"] = lg.residual / lg.wall * 100
}

// values reads one metric from every repetition.
func values(reps []repResult, f func(repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func wallOf(r repResult) float64  { return r.WallS }
func setupOf(r repResult) float64 { return r.SetupS }

// ledgerTerms sets per-layer costs times the work the traced run did
// against its wall time: what the layers explain, and the residual.
type ledgerTerms struct {
	setup, packets, epochs, samples, power float64
	predicted, wall, residual              float64
}

func ledger(setupS float64, t repResult) ledgerTerms {
	L := t.Layers
	lg := ledgerTerms{
		setup:   setupS,
		packets: float64(t.Delivered) * L["fabric.pkt_ns"] / 1e9,
		epochs:  t.ChanEpochs * L["core.chan_epoch_ns"] / 1e9,
		samples: t.SeriesSamples * L["telemetry.sample_series_ns"] / 1e9,
		power:   L["power.collect_ms"] / 1e3,
		wall:    t.WallS,
	}
	lg.predicted = lg.setup + lg.packets + lg.epochs + lg.samples + lg.power
	lg.residual = lg.wall - lg.predicted
	return lg
}

// writeLedger prints one workload's ledger, tracing overhead and, for
// the harness, each experiment's time.
func (b *bench) writeLedger(r *wlRun) {
	t := r.traced
	lg := ledger(medianOf(values(r.reps, setupOf)), *t)
	w := b.stderr
	of := "the workload"
	if r.w.harness {
		of = "the harness's evaluation base"
	}
	fmt.Fprintf(w, "\nledger %s (traced RunContext of %s):\n", r.w.name, of)
	row := func(name string, v float64) {
		fmt.Fprintf(w, "  %-48s %10.4f s  %6.1f%%\n", name, v, v/lg.wall*100)
	}
	row("setup_s", lg.setup)
	row(fmt.Sprintf("%d delivered x fabric.pkt_ns", t.Delivered), lg.packets)
	row(fmt.Sprintf("%.0f channel-epochs x core.chan_epoch_ns", t.ChanEpochs), lg.epochs)
	row(fmt.Sprintf("%.0f series-samples x telemetry.sample_series_ns", t.SeriesSamples), lg.samples)
	row("power.collect_ms", lg.power)
	row("sum", lg.predicted)
	row("traced wall", lg.wall)
	row("residual (wall - sum)", lg.residual)
	fmt.Fprintf(w, "  packet term breakdown (not summed): sim.event_ns_at_depth %.1f ns x %.2f events/pkt, routing.candidates_ns %.1f ns, link.transmit_ns %.1f ns\n",
		t.Layers["sim.event_ns_at_depth"], t.Layers["fabric.events_per_pkt"], t.Layers["routing.candidates_ns"], t.Layers["link.transmit_ns"])
	fmt.Fprintf(w, "  tracing overhead: %+.4f s (traced wall minus untraced median wall_s)\n", t.Layers["trace.overhead_s"])
	if len(t.Experiments) > 0 {
		fmt.Fprintf(w, "  harness experiments (epnet functions, Parallel=%d):\n", runtime.NumCPU())
		for _, x := range t.Experiments {
			fmt.Fprintf(w, "    harness.%s_s %8.3f\n", x.Name, x.S)
		}
	}
	fmt.Fprintf(w, "  digest %s\n", t.Digest)
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// revision is the VCS revision the binary was built from, if known.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
