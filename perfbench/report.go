package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// report accumulates one run's metrics and output checks. Each input
// (pair or contig) has one reference MAF: the first complete one seen.
// Every later MAF of that input, on any path, must match it byte for
// byte.
type report struct {
	values    map[string]float64
	notes     []string
	failures  []string
	refs      []string // reference digest per input
	mafs      [][]byte // reference MAF per input
	attempted []int    // jobs per input, every path
	failed    []int
	quality   quality
}

func newReport(inputs int) *report {
	return &report{
		values:    map[string]float64{},
		refs:      make([]string, inputs),
		mafs:      make([][]byte, inputs),
		attempted: make([]int, inputs),
		failed:    make([]int, inputs),
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// jobFailed counts a failed job of input k.
func (r *report) jobFailed(k int, format string, args ...any) {
	r.failed[k]++
	r.fail(format, args...)
}

// see checks a job's MAF of input k: it must be complete and identical
// to the input's reference; otherwise the job counts as failed.
func (r *report) see(k int, path string, data []byte) bool {
	if _, err := parseMAF(data); err != nil {
		r.jobFailed(k, "input %d via %s: %v", k, path, err)
		return false
	}
	d := digest(data)
	switch {
	case r.refs[k] == "":
		r.refs[k] = d
		r.mafs[k] = data
	case r.refs[k] != d:
		r.jobFailed(k, "input %d via %s: MAF digest %.12s differs from %.12s", k, path, d, r.refs[k])
		return false
	}
	return true
}

// pinned compares the reference digests with the pinned ones; every
// job of a mismatched input counts as failed.
func (r *report) pinned(want []string) {
	if len(want) != len(r.refs) {
		r.fail("pinned digests list %d inputs, run has %d: %s", len(want), len(r.refs), strings.Join(r.refs, " "))
		return
	}
	for k, d := range r.refs {
		if d != want[k] {
			r.fail("input %d: MAF digest %s does not match the pinned %s", k, d, want[k])
			r.failed[k] = r.attempted[k]
		}
	}
}

func (r *report) totals() (attempted, failed int) {
	for k := range r.attempted {
		attempted += r.attempted[k]
		failed += min(r.failed[k], r.attempted[k])
	}
	return attempted, failed
}

// traced records the per-layer figures of the in-process traced jobs.
func (r *report) traced(jts []*jobTrace, untraced sample) {
	var wall, read, index, chn, write, share, seedS, filterS, extS, cpw sample
	var w struct{ hits, cands, fcells, passed, absorbed, ecells, hsps, mafBytes int64 }
	for _, jt := range jts {
		wall = append(wall, secs(jt.wall))
		read = append(read, secs(jt.read))
		index = append(index, secs(jt.index))
		chn = append(chn, secs(jt.chain))
		write = append(write, secs(jt.write))
		if jt.wall > 0 {
			share = append(share, float64(jt.layers())/float64(jt.wall))
		}
		cpw = append(cpw, jt.cpuPerWall)
		res := jt.res
		seedS = append(seedS, secs(res.Timings.Seeding))
		filterS = append(filterS, secs(res.Timings.Filtering))
		extS = append(extS, secs(res.Timings.Extension))
		wl := res.Workload
		w.hits += wl.SeedHits
		w.cands += wl.Candidates
		w.fcells += wl.FilterCells
		w.passed += wl.PassedFilter
		w.absorbed += wl.Absorbed
		w.ecells += wl.ExtensionCells
		w.hsps += int64(len(res.HSPs))
		w.mafBytes += int64(len(jt.maf))
	}
	r.set("genome.read_fasta_s", read.median())
	r.set("seed.build_index_s", index.median())
	r.set("core.seed_s", seedS.median())
	r.set("core.filter_s", filterS.median())
	r.set("core.extend_s", extS.median())
	r.set("core.cpu_per_wall", cpw.median())
	extended := w.passed - w.absorbed
	r.set("core.extended_frac", ratio(extended, w.passed))
	r.set("core.hsp_per_extended", ratio(w.hsps, extended))
	r.set("chain.build_s", chn.median())
	r.set("maf.write_s", write.median())
	r.set("maf.bytes", float64(w.mafBytes))
	r.set("gact.cells", float64(w.ecells))
	r.set("work.seed_hits", float64(w.hits))
	r.set("work.candidates", float64(w.cands))
	r.set("work.filter_cells", float64(w.fcells))
	r.set("work.passed", float64(w.passed))
	r.set("work.absorbed", float64(w.absorbed))
	r.set("work.extension_cells", float64(w.ecells))
	r.set("work.hsps", float64(w.hsps))
	r.set("trace.job_p50_s", wall.median())
	r.set("trace.untraced_job_p50_s", untraced.median())
	r.set("trace.layer_share", share.median())
}

// kernels records the single-goroutine kernel drives.
func (r *report) kernels(ks kernelStats) {
	r.set("dsoft.ns_per_query_bp", ratio(ks.dsoftNS, ks.dsoftBP))
	r.set("dsoft.candidates", float64(ks.candidates))
	r.set("align.bsw_ns_per_cell", ratio(ks.bswNS, ks.bswCells))
	r.set("align.bsw_cells", float64(ks.bswCells))
	r.set("align.bsw_pass_frac", ratio(ks.bswPass, ks.bswTiles))
	h, j := ks.gact[homologous], ks.gact[junk]
	r.set("gact.ns_per_cell", ratio(h.ns+j.ns, h.cells+j.cells))
	r.set("gact.ns_per_cell.homologous", ratio(h.ns, h.cells))
	r.set("gact.ns_per_cell.junk", ratio(j.ns, j.cells))
	r.set("gact.cells_per_anchor.homologous", ratio(h.cells, h.anchors))
	r.set("gact.cells_per_anchor.junk", ratio(j.cells, j.anchors))
	r.set("gact.sampled.homologous", float64(h.anchors))
	r.set("gact.sampled.junk", float64(j.anchors))
}

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report, then the result line as the
// last line of out.
func (r *report) print(out io.Writer, w workload, seed int64, trace bool) error {
	attempted, failed := r.totals()
	if attempted == 0 {
		return fmt.Errorf("no jobs attempted")
	}
	failedFrac := ratio(int64(failed), int64(attempted))
	specs, kind := endToEnd, "untraced"
	if trace {
		specs, kind = perLayer, "traced"
		r.set("quality.recall", r.quality.recall())
		r.set("quality.fp_bp", float64(r.quality.fpBP))
		r.set("quality.failed_frac", failedFrac)
	}
	fmt.Fprintf(out, "workload %s seed %d (%s run)\n", w.name, seed, kind)
	line := resultLine{Correct: len(r.failures) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := r.values[m.name]
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, v, m.unit)
	}
	if !trace {
		recall := "n/a (no orthologs)"
		if r.quality.orthoBP > 0 {
			recall = fmt.Sprintf("%.4f", r.quality.recall())
		}
		fmt.Fprintf(out, "  %-36s %14s frac\n", "recall", recall)
		fmt.Fprintf(out, "  %-36s %14d bp\n", "fp_bp", r.quality.fpBP)
		fmt.Fprintf(out, "  %-36s %14.6g frac (%d of %d jobs)\n", "failed_frac", failedFrac, failed, attempted)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
