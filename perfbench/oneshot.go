package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
	"darwinwga/internal/seed"
)

// probeBP is the query length of the set-up probe: long enough to seed,
// short enough that the CLI's fixed cost dominates.
const probeBP = 2000

// setupReps is how many times a run sets up before measuring; setup_s
// is their median.
const setupReps = 5

// runOneshot measures a one-shot workload: a closed loop of one client
// running the CLI on the run's pairs in turn, in whole passes, for at
// least e.seconds and at least the workload's passes. One client keeps
// each job's latency its own: the CLI already uses every core while it
// filters.
func runOneshot(ctx context.Context, e *env, in *inputs) (*report, error) {
	rep := newReport(len(in.pairs))

	// Set-up: the CLI has no resident state, so its time to ready is
	// its fixed per-invocation cost — start, read, index the target —
	// measured on a probe query too short to align much.
	probe, err := writeProbe(in.pairs[0], filepath.Join(e.work, "probe"))
	if err != nil {
		return nil, err
	}
	var setup sample
	for i := 0; i < setupReps; i++ {
		r, err := runCLI(ctx, e.bin, "-target", in.pairs[0].targetPath, "-query", probe,
			"-out", filepath.Join(e.work, "probe", "probe.maf"))
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setup = append(setup, secs(r.wall))
	}

	var jobs sample
	var cpu time.Duration
	var rssKB, bp int64
	maxJobs := 1 << 30
	if e.trace {
		maxJobs = len(in.pairs) // the traced run needs one untraced pass only
	}
	start := time.Now()
	for i := 0; i < maxJobs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Whole passes only, so every pair weighs the same in the median.
		if i > 0 && i%len(in.pairs) == 0 && i >= e.w.tailJobs() && time.Since(start) >= e.seconds {
			break
		}
		k := i % len(in.pairs)
		p := in.pairs[k]
		out := filepath.Join(e.work, fmt.Sprintf("job%d.maf", i))
		r, err := runCLI(ctx, e.bin, "-target", p.targetPath, "-query", p.queryPath, "-out", out)
		rep.attempted[k]++
		if err != nil {
			rep.jobFailed(k, "one-shot job %d: %v", i, err)
			continue
		}
		data, err := readAndRemove(out)
		if err != nil {
			rep.jobFailed(k, "one-shot job %d: %v", i, err)
			continue
		}
		if !rep.see(k, "one-shot CLI", data) {
			continue
		}
		jobs = append(jobs, secs(r.wall))
		cpu += r.cpu
		rssKB = max(rssKB, r.rssKB)
		bp += int64(p.queryBP)
	}
	elapsed := time.Since(start)

	for k, p := range in.pairs {
		if rep.mafs[k] == nil {
			continue
		}
		q, err := scoreMAF(p.pair, p.shuffled, rep.mafs[k])
		if err != nil {
			return nil, err
		}
		rep.quality.add(q)
	}

	tail, pct, n := jobs[:min(len(jobs), e.w.tailJobs())].tail()
	rep.set("setup_s", setup.median())
	rep.set("job_p50_s", jobs.median())
	rep.set("job_tail_s", tail)
	// The CLI writes its MAF once, at the end: the first block arrives
	// with the last.
	rep.set("first_block_p50_s", jobs.median())
	rep.set("query_kbp_per_s", float64(bp)/1000/elapsed.Seconds())
	if len(jobs) > 0 {
		rep.set("cpu_s_per_job", cpu.Seconds()/float64(len(jobs)))
	}
	rep.set("peak_rss_mb", float64(rssKB)/1024)
	if !e.trace {
		rep.note("job_tail_s is p%.0f of the first %d jobs; %d jobs in all", pct, n, len(jobs))
	}
	rep.note("%d pairs, %.1f kbp of query per pass", len(in.pairs), float64(totalQueryBP(in))/1000)

	if e.trace {
		if err := traceOneshotRun(e, in, rep, jobs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func totalQueryBP(in *inputs) int {
	n := 0
	for _, p := range in.pairs {
		n += p.queryBP
	}
	return n
}

// writeProbe writes the first probeBP bases of a pair's query under the
// query's own file name, so the probe's MAF names match real jobs'.
func writeProbe(p pairInput, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	q := p.pair.Query
	bases := q.Seqs[0].Bases
	if len(bases) > probeBP {
		bases = bases[:probeBP]
	}
	path := filepath.Join(dir, filepath.Base(p.queryPath))
	a := &genome.Assembly{Name: q.Name, Seqs: []*genome.Sequence{{Name: q.Seqs[0].Name, Bases: bases}}}
	return path, genome.WriteFASTAFile(path, a)
}

// traceOneshotRun is the traced half of a one-shot run: every pair
// replayed in-process under spans (its MAF must equal the CLI's), the
// kernels driven on the first pair, and the index store timed on it.
func traceOneshotRun(e *env, in *inputs, rep *report, untraced sample) error {
	var jts []*jobTrace
	for k, p := range in.pairs {
		jt, err := traceOneshot(e.tr, fmt.Sprintf("pair%d", k), p.targetPath, p.queryPath)
		if err != nil {
			return err
		}
		rep.attempted[k]++
		rep.see(k, "in-process library", jt.maf)
		jts = append(jts, jt)
	}
	rep.traced(jts, untraced)

	p := in.pairs[0]
	target, err := genome.ReadFASTAFile(p.targetPath)
	if err != nil {
		return err
	}
	query, err := genome.ReadFASTAFile(p.queryPath)
	if err != nil {
		return err
	}
	tBases, _ := genome.Concat(target.Seqs)
	qBases, _ := genome.Concat(query.Seqs)
	aligner, err := core.NewAligner(tBases, core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := rep.indexLayers(e.tr, aligner, tBases, filepath.Join(e.work, "trace.dwx")); err != nil {
		return err
	}
	ks, err := driveKernels(e.tr, aligner, qBases, p.pair, p.shuffled)
	if err != nil {
		return err
	}
	rep.kernels(ks)
	return nil
}

// indexLayers records the seed index's size and the index store's load
// time (one span per load) for an aligner's target; the serialized
// index is left at path.
func (r *report) indexLayers(tr *tracer, aligner *core.Aligner, tBases []byte, path string) error {
	ix := aligner.Index()
	if err := indexstore.Write(path, ix, indexstore.FingerprintBases(tBases)); err != nil {
		return err
	}
	var loads sample
	for i := 0; i < setupReps; i++ {
		var err error
		d := tr.do("indexstore.load", "index", 0, func() { _, _, err = indexstore.Load(path) })
		if err != nil {
			return err
		}
		loads = append(loads, secs(d))
	}
	r.set("seed.index_mb", float64(ix.MemoryBytes())/1e6)
	r.set("indexstore.load_s", loads.median())
	return nil
}

// timeIndexBuild times one seed-index build of tBases under a span.
func timeIndexBuild(tr *tracer, tBases []byte) (float64, error) {
	cfg := core.DefaultConfig()
	shape, err := seed.ParseShape(cfg.SeedPattern)
	if err != nil {
		return 0, err
	}
	d := tr.do("seed.build_index", "index", 0, func() {
		_, err = seed.BuildIndex(tBases, shape, seed.IndexOptions{MaxFreq: cfg.SeedMaxFreq})
	})
	return secs(d), err
}
