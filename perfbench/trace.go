package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"darwinwga"
	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/seed"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one job share Job; Parent is the id of
// the enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write dumps them once at exit.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, job string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: time.Since(t.t0).Seconds()})
	return id
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// do times fn as a child span of parent.
func (t *tracer) do(name, job string, parent int, fn func()) time.Duration {
	id := t.start(name, job, parent)
	fn()
	return t.finish(id)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// jobTrace is the outcome of one traced in-process job.
type jobTrace struct {
	wall                             time.Duration
	read, index, align, chain, write time.Duration
	res                              *core.Result
	maf                              []byte
	cpuPerWall                       float64
}

// layers is the time the job spent inside the layers it called.
func (j *jobTrace) layers() time.Duration {
	return j.read + j.index + j.align + j.chain + j.write
}

// processCPU is this process's user+system CPU so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traceOneshot replays what the one-shot CLI does for one job, calling
// each layer's public entry point under a span: read both FASTA files,
// build the seed index, align, chain, and render the MAF.
func traceOneshot(tr *tracer, job, targetPath, queryPath string) (*jobTrace, error) {
	jt := &jobTrace{}
	root := tr.start("job", job, 0)
	err := func() error {
		var target, query *genome.Assembly
		var err error
		jt.read = tr.do("genome.read_fasta", job, root, func() {
			if target, err = genome.ReadFASTAFile(targetPath); err == nil {
				query, err = genome.ReadFASTAFile(queryPath)
			}
		})
		if err != nil {
			return err
		}
		tBases, tStarts := genome.Concat(target.Seqs)
		cfg := core.DefaultConfig()
		var aligner *core.Aligner
		jt.index = tr.do("seed.build_index", job, root, func() {
			var shape *seed.Shape
			var ix *seed.Index
			if shape, err = seed.ParseShape(cfg.SeedPattern); err != nil {
				return
			}
			if ix, err = seed.BuildIndex(tBases, shape, seed.IndexOptions{MaxFreq: cfg.SeedMaxFreq}); err != nil {
				return
			}
			aligner, err = core.NewAlignerWithIndex(tBases, cfg, ix)
		})
		if err != nil {
			return err
		}
		tMap, err := maf.NewSeqMap(target.Name, seqNames(target), tStarts)
		if err != nil {
			return err
		}
		return traceAlign(tr, job, root, jt, aligner, tMap, query, true)
	}()
	jt.wall = tr.finish(root)
	return jt, err
}

// traceAlign runs the pipeline, chaining (when withChains, as the CLI
// does) and MAF rendering for one query against a prepared aligner,
// each under a span below parent.
func traceAlign(tr *tracer, job string, parent int, jt *jobTrace, aligner *core.Aligner, tMap *maf.SeqMap, query *genome.Assembly, withChains bool) error {
	tBases := aligner.Target()
	qBases, qStarts := genome.Concat(query.Seqs)
	qMap, err := maf.NewSeqMap(query.Name, seqNames(query), qStarts)
	if err != nil {
		return err
	}
	var emitted []core.HSP
	cfg := aligner.Config()
	cfg.HSPHook = func(h core.HSP) { emitted = append(emitted, h) }
	run, err := aligner.WithConfig(cfg)
	if err != nil {
		return err
	}
	cpu0 := processCPU()
	jt.align = tr.do("core.align", job, parent, func() {
		jt.res, err = run.AlignContext(context.Background(), qBases)
	})
	if jt.align > 0 {
		jt.cpuPerWall = float64(processCPU()-cpu0) / float64(jt.align)
	}
	if err != nil {
		return err
	}
	if jt.res.Truncated != "" {
		return fmt.Errorf("traced job %s truncated: %s", job, jt.res.Truncated)
	}
	if withChains {
		jt.chain = tr.do("chain.build", job, parent, func() {
			darwinwga.BuildChains(jt.res.HSPs, tBases, qBases, chain.DefaultOptions())
		})
	}
	jt.write = tr.do("maf.write", job, parent, func() {
		var buf bytes.Buffer
		mw := maf.NewWriter(&buf)
		br := &maf.BlockRenderer{TMap: tMap, QMap: qMap, Target: tBases, Query: qBases}
		for _, h := range emitted {
			ops := make([]byte, len(h.Ops))
			for k, op := range h.Ops {
				ops[k] = byte(op)
			}
			var b *maf.Block
			if b, err = br.Render(int64(h.Score), h.Strand, h.TStart, h.QStart, ops); err != nil {
				return
			}
			if err = mw.Write(b); err != nil {
				return
			}
		}
		if err = mw.Close(); err == nil {
			jt.maf = buf.Bytes()
		}
	})
	return err
}

func seqNames(a *genome.Assembly) []string {
	names := make([]string, len(a.Seqs))
	for i, s := range a.Seqs {
		names[i] = s.Name
	}
	return names
}
