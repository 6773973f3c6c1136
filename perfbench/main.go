// Command perfbench is darwin-wga's end-to-end benchmark: FASTA in,
// MAF out, through the paths users run — the one-shot CLI and a
// coordinator with one worker — each a child process at default
// settings, driven from this single load-generating process.
//
// Usage (from the repository root; perfbench/run.sh builds both
// binaries first):
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The seed makes the inputs: seed 0 (the default) keeps the standard
// pair seeds, any other seed replaces the evolve pair seed and the
// shuffle seed. The system only ever sees the generated FASTA; the
// simulator's truth map stays here, for scoring.
//
// # Workloads
//
// oneshot-close: dm6-droSim1 (the closest pair) through the one-shot
// CLI, gapped filter, both strands. About one candidate in twelve
// passes the BSW filter, nearly every survivor is absorbed by an
// earlier extension, and GACT-X extension on one goroutine is the
// largest share of wall time, so GACT-X per-cell cost and parallel
// extension show here. Each run draws ten independent pairs at scale
// 0.0005 from its seed and cycles through them in whole passes: one
// pair's extension work varies by about a tenth from seed to seed, and
// the median over ten pairs averages much of that out.
//
// oneshot-noise: six such queries against doublet-shuffled targets,
// the paper's false-positive experiment (§VI-B). Seeding and filter
// load match oneshot-close, but no anchor survives the filter, so it
// isolates seeding and the BSW kernel (a pre-filter shows here) and
// bypasses extension: a GACT-X or extension change must not move it.
//
// coord-distant: two ce11-cb4 pairs (the most distant pair) at scale
// 0.001, each query cut into eight contigs, each contig one job
// submitted to a coordinator by a closed loop of two clients, MAF
// streamed back. Jobs are short, so the serving layers — worker queue,
// coordinator dispatch, status polling, MAF relay — are a large share
// of latency. Two pairs rather than one halve the seed-to-seed spread
// of the CPU and throughput figures. The worker loads the targets'
// serialized .dwx indexes, so index load is in setup_s here, whereas
// the one-shot workloads rebuild the index inside every job.
//
// A fourth workload, the coordinator's sharded dispatch on a close
// pair, was dropped as a timed workload: one sharded job takes 8 s at a
// tenth of the close pair's size, and its duplicate hedged units vary
// with timing. The shard plane is still measured: coord-distant runs
// re-run contigs through a coordinator started with -shard-dispatch '*'
// (their MAFs must match), and the traced run replays the work units
// in-process.
//
// # Checks
//
// Every MAF must be complete (it ends with the trailer) and all MAFs of
// one input must be byte-identical across jobs and paths: the one-shot
// CLI, the coordinator whole-job and sharded, and the in-process replay
// of the traced run. An untraced coord-distant run re-runs two contigs,
// chosen by the seed, on the one-shot and sharded paths; a traced run
// re-runs all sixteen. For seed 0 the MAFs must also match the digests
// pinned in digests.json. A change that is meant to change output
// updates that file by hand: each mismatch's CHECK FAILED line prints
// the input's full digest. A job that fails, is cut short, answers
// non-2xx or mismatches counts as failed.
//
// # Traced run
//
// With -trace 1 the run feeds each input once through the system, then
// replays the same inputs in-process, timing calls into each layer's
// public functions as spans (name, start, end, parent, job id) kept in
// memory and written to .bench_build/traces at exit. The kernels are
// driven directly on the workload's own data on one goroutine:
// dsoft.Seeder.Collect, align.BandedAligner.FilterTile on every
// candidate, and gact.Extender.Extend on a deterministic sample of
// core.Aligner.Anchors survivors split by the truth map into homologous
// and junk anchors. Stage times and work counts come from the Result
// that core.AlignContext returns; server queue wait and run time from
// the worker's own job status; cluster overhead is client-observed
// latency minus worker-observed latency, and the dispatch delay is the
// time from submit until the worker created its job. The shard plane
// is replayed with core.PlanShards, Aligner.AlignShardUnit and
// core.MergeShardFrames; its extensions are counted through the
// pipeline's public per-anchor FaultHook. No span or counter is added
// inside the program.
//
// trace.job_p50_s is the replay's job time and trace.untraced_job_p50_s
// the same work's time in the system: the CLI's wall time on the
// one-shot workloads, the worker's own run time (started to finished)
// on coord-distant, so their difference is not the serving layers.
// It is tracing overhead, plus on coord-distant the two clients' jobs
// sharing the worker's cores, which the one-at-a-time replay avoids.
//
// # Metrics
//
// job_tail_s is the highest percentile with at least ten jobs beyond
// it, read off the jobs of the workload's first few whole passes (a
// fixed count per workload, which every run makes), so the percentile
// does not move when a faster program fits more passes into a run:
// p50 of 10 jobs on oneshot-close (too few for a tail), p58 of 24 on
// oneshot-noise, p69 of 32 on coord-distant. The report's note gives
// the count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// env is one run's settings.
type env struct {
	w       workload
	bin     string // darwin-wga binary
	work    string // this run's scratch directory
	seconds time.Duration
	seed    int64
	trace   bool
	tr      *tracer
}

func main() { os.Exit(cliMain()) }

func cliMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 0, "input seed (0 = the standard pair seeds)")
	seconds := fs.Int("seconds", 10, "how long the closed loop keeps submitting")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := fs.String("bin", ".bench_build/bin/darwin-wga", "darwin-wga binary under test")
	workRoot := fs.String("work", ".bench_build/work", "scratch directory for inputs and outputs")
	benchDir := fs.String("dir", "perfbench", "the benchmark's directory (pinned digests)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runBench(ctx, os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *workRoot, *benchDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runBench makes the inputs, runs the workload, checks outputs and
// prints the report to out; the result line is its last line.
func runBench(ctx context.Context, out io.Writer, w workload, seed int64, seconds time.Duration, trace bool, bin, workRoot, benchDir string) error {
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("darwin-wga binary: %w", err)
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, fmt.Sprintf("%s-seed%d-", w.name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{w: w, bin: abs, work: work, seconds: seconds, seed: seed, trace: trace}
	if trace {
		e.tr = newTracer()
	}
	in, err := makeInputs(w, seed, filepath.Join(work, "inputs"))
	if err != nil {
		return fmt.Errorf("making inputs: %w", err)
	}
	var rep *report
	if w.contigs > 0 {
		rep, err = runCoord(ctx, e, in)
	} else {
		rep, err = runOneshot(ctx, e, in)
	}
	if err != nil {
		return err
	}
	if seed == 0 {
		p, err := loadPins(benchDir)
		if err != nil {
			return fmt.Errorf("pinned digests: %w", err)
		}
		rep.pinned(p[w.name])
	}
	if trace {
		path := filepath.Join(filepath.Dir(workRoot), "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := e.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep.print(out, w, seed, trace)
}
