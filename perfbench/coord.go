package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
	"darwinwga/internal/maf"
)

// shardUnitsPerStrand is the coordinator's default -shard-units.
const shardUnitsPerStrand = 4

// coordClients is the closed loop's client count: one per core of the
// 2-core reference machine, so the load generator never oversubscribes.
const coordClients = 2

// cluster is one coordinator with one worker, both at default
// settings apart from ephemeral ports and the worker's index directory.
type cluster struct {
	coord, worker *server
}

func (c *cluster) stop() {
	if c.worker != nil {
		c.worker.stop()
	}
	if c.coord != nil {
		c.coord.stop()
	}
}

// startCluster brings up a coordinator and a worker that loads every
// pair's serialized target index, and returns once the coordinator
// reports the worker live and the targets served.
func startCluster(ctx context.Context, e *env, in *inputs, indexDir string, coordArgs ...string) (*cluster, error) {
	c := &cluster{}
	var err error
	args := append([]string{"-role=coordinator", "-addr", "127.0.0.1:0"}, coordArgs...)
	if c.coord, err = startServer(e.bin, args...); err != nil {
		return nil, err
	}
	wargs := []string{"-role=worker", "-coordinator", c.coord.url(), "-addr", "127.0.0.1:0", "-index-dir", indexDir}
	for _, p := range in.pairs {
		wargs = append(wargs, "-register", p.pair.Target.Name+"="+p.targetPath)
	}
	c.worker, err = startServer(e.bin, wargs...)
	if err != nil {
		c.stop()
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for !readyz(ctx, c.coord.url(), len(in.pairs)) {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cluster not ready: %s", lastLines(c.worker.log.String(), 3))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c, nil
}

func (c *cluster) cpu() (time.Duration, error) {
	a, err := c.coord.cpu()
	if err != nil {
		return 0, err
	}
	b, err := c.worker.cpu()
	return a + b, err
}

func (c *cluster) peakRSSKB() (int64, error) {
	a, err := c.coord.peakRSSKB()
	if err != nil {
		return 0, err
	}
	b, err := c.worker.peakRSSKB()
	return a + b, err
}

// runCoord measures a coordinator workload: the queries' contigs are
// submitted by a closed loop of coordClients clients, in whole passes,
// for at least e.seconds and at least the workload's passes. Afterwards
// contigs are re-run through the one-shot CLI and through a sharded
// coordinator, and all MAFs of a contig must be byte-identical.
func runCoord(ctx context.Context, e *env, in *inputs) (*report, error) {
	rep := newReport(len(in.contigs))
	indexDir := filepath.Join(e.work, "index")
	if err := os.MkdirAll(indexDir, 0o755); err != nil {
		return nil, err
	}
	for _, p := range in.pairs {
		if _, err := runCLI(ctx, e.bin, "index", "build", "-target", p.targetPath,
			"-out", filepath.Join(indexDir, p.pair.Target.Name+".dwx")); err != nil {
			return nil, fmt.Errorf("building the serialized index: %w", err)
		}
	}

	// Set-up: servers up, index loaded, worker visible. The last
	// cluster stays up for the measurement.
	var setup sample
	var cl *cluster
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		var err error
		if cl, err = startCluster(ctx, e, in, indexDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, secs(time.Since(t0)))
	}
	defer func() { cl.stop() }()

	cpu0, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	jobs := closedLoop(ctx, e, in, cl.coord.url())
	elapsed := time.Since(jobs.start)
	cpu1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	rssKB, err := cl.peakRSSKB()
	if err != nil {
		return nil, err
	}

	var lat, tailLat, first sample
	var bp int64
	done := 0
	for _, j := range jobs.jobs {
		rep.attempted[j.input]++
		if j.err != nil {
			rep.jobFailed(j.input, "coordinator job (contig %d): %v", j.input, j.err)
			continue
		}
		if !rep.see(j.input, "coordinator", j.maf) {
			continue
		}
		done++
		lat = append(lat, secs(j.latency()))
		if j.seq < e.w.tailJobs() {
			tailLat = append(tailLat, secs(j.latency()))
		}
		first = append(first, secs(j.firstBlockAt()))
		bp += int64(in.contigs[j.input].len)
	}
	var layers *clusterLayers
	if e.trace {
		if layers, err = readClusterLayers(ctx, cl, jobs.jobs); err != nil {
			return nil, err
		}
	}
	cl.stop()

	if err := crossPaths(ctx, e, rep, in, indexDir, layers); err != nil {
		return nil, err
	}
	for k, p := range in.pairs {
		if q, err := scoreContigs(p.pair, k, in.contigs, rep.mafs); err == nil {
			rep.quality.add(q)
		} else {
			rep.fail("scoring pair %d's contigs: %v", k, err)
		}
	}

	tail, pct, n := tailLat.tail()
	rep.set("setup_s", setup.median())
	rep.set("job_p50_s", lat.median())
	rep.set("job_tail_s", tail)
	rep.set("first_block_p50_s", first.median())
	rep.set("query_kbp_per_s", float64(bp)/1000/elapsed.Seconds())
	if done > 0 {
		rep.set("cpu_s_per_job", (cpu1-cpu0).Seconds()/float64(done))
	}
	rep.set("peak_rss_mb", float64(rssKB)/1024)
	if !e.trace {
		rep.note("job_tail_s is p%.0f of the first %d jobs; %d jobs in all", pct, n, len(lat))
	}
	rep.note("%d clients, %d contigs of %.1f kbp query", coordClients, len(in.contigs), float64(totalQueryBP(in))/1000)

	if e.trace {
		layers.record(rep)
		// The replay times a contig against a prepared aligner; the
		// worker's own run time covers the same align-and-render work,
		// without the serving and cluster layers around it (but with
		// the other client's job sharing the cores).
		if err := traceCoordRun(e, in, rep, layers.run); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

type loopResult struct {
	start time.Time
	jobs  []*coordJob
}

// closedLoop runs the clients: each submits its next contig only after
// its previous job's MAF has fully arrived. Resubmissions of a contig
// carry a fresh record name (the worker's result cache keys on query
// content including names); the MAF is renamed back before checking.
func closedLoop(ctx context.Context, e *env, in *inputs, base string) loopResult {
	contigs := in.contigs
	res := loopResult{start: time.Now()}
	var mu sync.Mutex
	next := 0
	limit := 1 << 30
	if e.trace {
		limit = len(contigs) // one pass feeds the server and cluster layer figures
	}
	var wg sync.WaitGroup
	for c := 0; c < coordClients; c++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				// Whole passes only, so every contig weighs the same.
				if ctx.Err() != nil || j >= limit || (j > 0 && j%len(contigs) == 0 && j >= e.w.tailJobs() && time.Since(res.start) >= e.seconds) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				ci := contigs[j%len(contigs)]
				record, fasta := ci.record, ci.fasta
				if pass := j / len(contigs); pass > 0 {
					record = fmt.Sprintf("%sr%d", ci.record, pass)
					fasta = strings.Replace(ci.fasta, ">"+ci.record+"\n", ">"+record+"\n", 1)
				}
				tname, qname := in.names(ci)
				job := submitJob(ctx, base, tname, qname, fasta, client)
				job.input, job.seq = ci.index, j
				if job.err == nil {
					job.maf = renameQuery(job.maf, qname, record, ci.record)
				}
				mu.Lock()
				res.jobs = append(res.jobs, job)
				mu.Unlock()
			}
		}(fmt.Sprintf("bench-%d", c))
	}
	wg.Wait()
	return res
}

// crossContigs is how many contigs an untraced run re-runs on the other
// paths; the seed rotates which, so a set of runs covers them all.
const crossContigs = 2

// crossPaths re-runs contigs through the one-shot CLI and through a
// coordinator that shards every job; each MAF must equal the contig's
// reference. A traced run checks every contig (its sharded job times
// are a layer figure), an untraced run crossContigs of them.
func crossPaths(ctx context.Context, e *env, rep *report, in *inputs, indexDir string, layers *clusterLayers) error {
	picked := in.contigs
	if !e.trace && len(picked) > crossContigs {
		groups := int64(len(picked) / crossContigs)
		first := int(((e.seed%groups)+groups)%groups) * crossContigs
		picked = picked[first : first+crossContigs]
	}
	n := len(picked)
	cli := make([][]byte, n)
	cliErr := make([]error, n)
	parallel(2, n, func(i int) {
		out := filepath.Join(e.work, fmt.Sprintf("contig%d.maf", picked[i].index))
		target := in.pairs[picked[i].pair].targetPath
		if _, cliErr[i] = runCLI(ctx, e.bin, "-target", target, "-query", picked[i].path, "-out", out); cliErr[i] == nil {
			cli[i], cliErr[i] = readAndRemove(out)
		}
	})
	for i, c := range picked {
		rep.attempted[c.index]++
		if cliErr[i] != nil {
			rep.jobFailed(c.index, "one-shot contig %d: %v", c.index, cliErr[i])
			continue
		}
		rep.see(c.index, "one-shot CLI", cli[i])
	}

	sharded, err := startCluster(ctx, e, in, indexDir, "-shard-dispatch", "*")
	if err != nil {
		return fmt.Errorf("sharded cluster: %w", err)
	}
	defer sharded.stop()
	jobs := make([]*coordJob, n)
	parallel(2, n, func(i int) {
		tname, qname := in.names(picked[i])
		jobs[i] = submitJob(ctx, sharded.coord.url(), tname, qname, picked[i].fasta, "bench-sharded")
	})
	for i, j := range jobs {
		c := picked[i].index
		rep.attempted[c]++
		if j.err != nil {
			rep.jobFailed(c, "sharded contig %d: %v", c, j.err)
			continue
		}
		if rep.see(c, "sharded coordinator", j.maf) && layers != nil {
			layers.shardJobs = append(layers.shardJobs, secs(j.latency()))
		}
	}
	return nil
}

// parallel calls fn(0..count-1) on n goroutines and waits for all.
func parallel(n, count int, fn func(i int)) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= count {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// clusterLayers are the serving-layer figures of a traced run, read
// from the coordinator's and the worker's own job status.
type clusterLayers struct {
	queueWait, run, serverOverhead sample
	clusterOverhead, dispatchDelay sample
	dispatches                     []int
	shardJobs                      sample
}

func readClusterLayers(ctx context.Context, cl *cluster, jobs []*coordJob) (*clusterLayers, error) {
	l := &clusterLayers{}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		var cs coordStatus
		if err := getJSON(ctx, cl.coord.url()+"/v1/jobs/"+j.id, &cs); err != nil {
			return nil, err
		}
		if cs.Worker == nil {
			return nil, fmt.Errorf("job %s has no worker assignment", j.id)
		}
		var ws workerStatus
		if err := getJSON(ctx, "http://"+strings.TrimPrefix(cs.Worker.WorkerAddr, "http://")+"/v1/jobs/"+cs.Worker.WorkerJobID, &ws); err != nil {
			return nil, err
		}
		if ws.Started == nil || ws.Finished == nil || ws.Stats == nil {
			return nil, fmt.Errorf("worker job %s has no run record", cs.Worker.WorkerJobID)
		}
		run := ws.Finished.Sub(*ws.Started)
		st := ws.Stats.Stages
		stages := time.Duration(st.Seeding.WallMS+st.Filter.WallMS+st.Extension.WallMS) * time.Millisecond
		l.queueWait = append(l.queueWait, secs(ws.Started.Sub(ws.Created)))
		l.run = append(l.run, secs(run))
		l.serverOverhead = append(l.serverOverhead, secs(run-stages))
		l.clusterOverhead = append(l.clusterOverhead, secs(j.latency()-ws.Finished.Sub(ws.Created)))
		l.dispatchDelay = append(l.dispatchDelay, secs(ws.Created.Sub(j.submitted)))
		l.dispatches = append(l.dispatches, cs.Dispatches)
	}
	return l, nil
}

func (l *clusterLayers) record(r *report) {
	r.set("server.queue_wait_p50_s", l.queueWait.median())
	r.set("server.run_p50_s", l.run.median())
	r.set("server.overhead_p50_s", l.serverOverhead.median())
	r.set("cluster.overhead_p50_s", l.clusterOverhead.median())
	r.set("cluster.dispatch_delay_p50_s", l.dispatchDelay.median())
	total := 0
	for _, d := range l.dispatches {
		total += d
	}
	r.set("cluster.dispatches_per_job", ratio(int64(total), int64(len(l.dispatches))))
	r.set("cluster.shard.job_p50_s", l.shardJobs.median())
}

// traceCoordRun is the traced half of a coordinator run: each contig
// job replayed in-process the way the worker runs it (parse the
// submitted FASTA, align against the loaded index, render the MAF),
// plus the kernels on the first pair's whole query and the shard plane
// per contig.
func traceCoordRun(e *env, in *inputs, rep *report, untraced sample) error {
	var jts []*jobTrace
	var ss shardStats
	var first *core.Aligner
	var buildS float64
	for k, p := range in.pairs {
		target, err := genome.ReadFASTAFile(p.targetPath)
		if err != nil {
			return err
		}
		tBases, tStarts := genome.Concat(target.Seqs)
		full, err := core.NewAligner(tBases, core.DefaultConfig())
		if err != nil {
			return err
		}
		dwx := filepath.Join(e.work, fmt.Sprintf("trace%d.dwx", k))
		if k == 0 {
			if buildS, err = timeIndexBuild(e.tr, tBases); err != nil {
				return err
			}
			if err := rep.indexLayers(e.tr, full, tBases, dwx); err != nil {
				return err
			}
		} else if err := indexstore.Write(dwx, full.Index(), indexstore.FingerprintBases(tBases)); err != nil {
			return err
		}
		ix, _, err := indexstore.Load(dwx)
		if err != nil {
			return err
		}
		aligner, err := core.NewAlignerWithIndex(tBases, core.DefaultConfig(), ix)
		if err != nil {
			return err
		}
		if k == 0 {
			first = aligner
		}
		tMap, err := maf.NewSeqMap(target.Name, seqNames(target), tStarts)
		if err != nil {
			return err
		}
		for _, c := range in.contigs {
			if c.pair != k {
				continue
			}
			jt, query, err := traceContig(e.tr, c, p.pair.Query.Name, aligner, tMap)
			if err != nil {
				return err
			}
			rep.attempted[c.index]++
			rep.see(c.index, "in-process library", jt.maf)
			jts = append(jts, jt)

			qBases, _ := genome.Concat(query.Seqs)
			cs, err := driveShards(e.tr, fmt.Sprintf("contig%d-shards", c.index), aligner, qBases, shardUnitsPerStrand)
			if err != nil {
				return err
			}
			ss.units += cs.units
			ss.extended += cs.extended
			ss.frames += cs.frames
			ss.kept += cs.kept
			ss.unitSecs = append(ss.unitSecs, cs.unitSecs...)
		}
	}
	rep.traced(jts, untraced)
	// Index work happens at set-up on this path, not inside jobs.
	rep.set("seed.build_index_s", buildS)

	// The gather merge must keep exactly the alignments a whole-job
	// run emits.
	if hsps := int(rep.values["work.hsps"]); ss.kept != hsps {
		rep.fail("shard merge kept %d alignments, whole-job runs emitted %d", ss.kept, hsps)
	}
	rep.set("cluster.shard.units", float64(ss.units))
	rep.set("cluster.shard.extended", float64(ss.extended))
	rep.set("cluster.shard.frames", float64(ss.frames))
	rep.set("cluster.shard.kept", float64(ss.kept))
	rep.set("cluster.shard.kept_frac", ratio(int64(ss.kept), int64(ss.extended)))
	rep.set("cluster.shard.unit_p50_s", ss.unitSecs.median())

	p := in.pairs[0]
	ks, err := driveKernels(e.tr, first, p.pair.QuerySeq(), p.pair, false)
	if err != nil {
		return err
	}
	rep.kernels(ks)
	return nil
}

// traceContig replays one contig job under spans: parse the submitted
// FASTA, then align and render against the prepared aligner.
func traceContig(tr *tracer, c contigInput, qname string, aligner *core.Aligner, tMap *maf.SeqMap) (*jobTrace, *genome.Assembly, error) {
	job := fmt.Sprintf("contig%d", c.index)
	jt := &jobTrace{}
	var query *genome.Assembly
	var err error
	root := tr.start("job", job, 0)
	jt.read = tr.do("genome.read_fasta", job, root, func() {
		var seqs []*genome.Sequence
		if seqs, err = genome.ReadFASTA(strings.NewReader(c.fasta)); err == nil {
			query = &genome.Assembly{Name: qname, Seqs: seqs}
		}
	})
	if err == nil {
		err = traceAlign(tr, job, root, jt, aligner, tMap, query, false)
	}
	jt.wall = tr.finish(root)
	return jt, query, err
}
