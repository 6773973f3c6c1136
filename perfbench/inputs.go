package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
	"darwinwga/internal/shuffle"
)

// workload is one benchmark configuration; see the package comment for
// why each exists.
type workload struct {
	name  string
	why   string
	pair  string  // evolve standard pair
	scale float64 // fraction of the real assembly sizes
	// pairs is how many independent genome pairs one run draws from its
	// seed; the closed loop cycles through them (or their contigs).
	pairs int
	// shuffled replaces each target with its doublet shuffle (the
	// paper's false-positive null model).
	shuffled bool
	// contigs > 0 makes a coordinator workload: each pair's query cut
	// into this many contigs, each contig one job.
	contigs int
	// passes is the fewest whole passes over the inputs a run makes.
	// job_tail_s is read off the jobs of the first passes passes only,
	// so its percentile is the same on every run of the workload however
	// many more passes fit in the run.
	passes int
}

// perPass is how many jobs one pass over the inputs submits.
func (w workload) perPass() int {
	if w.contigs > 0 {
		return w.pairs * w.contigs
	}
	return w.pairs
}

// tailJobs is the size of the sample job_tail_s is read off.
func (w workload) tailJobs() int { return w.passes * w.perPass() }

var workloads = []workload{
	{
		name: "oneshot-close", pair: "dm6-droSim1", scale: 0.0005, pairs: 10, passes: 1,
		why: "close pair through the one-shot CLI: GACT-X extension is the largest share of wall time",
	},
	{
		name: "oneshot-noise", pair: "dm6-droSim1", scale: 0.0005, pairs: 6, shuffled: true, passes: 4,
		why: "query against a doublet-shuffled target: same filter load, no survivors, so only seeding and the BSW filter run",
	},
	{
		name: "coord-distant", pair: "ce11-cb4", scale: 0.001, pairs: 2, contigs: 8, passes: 2,
		why: "distant-pair contigs as short jobs through coordinator and worker: serving and cluster layers are a large share",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pairSeed derives the evolve seed of a run's i-th pair. Seed 0 (the
// default) keeps the standard pair's own seed for the first pair, so
// the default inputs start with the pair the repository's tests use;
// any other seed replaces it.
func pairSeed(std int64, seed int64, i int) int64 {
	if seed == 0 {
		return std + int64(i)
	}
	return seed*1000 + int64(i)
}

// pairInput is one target/query pair written as FASTA, with the
// simulator truth kept for scoring (never shown to the system).
type pairInput struct {
	targetPath, queryPath string
	pair                  *evolve.Pair // truth; Target is the unshuffled one
	shuffled              bool
	queryBP               int
}

// contigInput is one coordinator job: a slice of one pair's query.
type contigInput struct {
	index      int    // position in inputs.contigs
	pair       int    // index into inputs.pairs
	start, len int    // forward coordinates within the whole query
	record     string // FASTA record name
	fasta      string // the submitted FASTA text
	path       string // the same contig as a file named <query>.<n>.fa
}

// inputs is everything one run feeds the system.
type inputs struct {
	pairs   []pairInput
	contigs []contigInput // coordinator workloads only
}

// makeInputs generates the run's inputs under dir. Only the FASTA files
// (and the contig texts) reach the system under test.
func makeInputs(w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < w.pairs; i++ {
		cfg, ok := evolve.StandardPair(w.pair, w.scale)
		if !ok {
			return nil, fmt.Errorf("unknown pair %q", w.pair)
		}
		cfg.Seed = pairSeed(cfg.Seed, seed, i)
		if i > 0 {
			// Distinct assembly names, so one server can hold every
			// pair's target.
			cfg.TargetName = fmt.Sprintf("%s_%d", cfg.TargetName, i)
			cfg.QueryName = fmt.Sprintf("%s_%d", cfg.QueryName, i)
		}
		p, err := evolve.Generate(cfg)
		if err != nil {
			return nil, err
		}
		pdir := filepath.Join(dir, fmt.Sprintf("pair%d", i))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return nil, err
		}
		target := p.Target
		if w.shuffled {
			rng := rand.New(rand.NewSource(cfg.Seed))
			target = &genome.Assembly{Name: p.Target.Name, Seqs: []*genome.Sequence{
				{Name: p.Target.Seqs[0].Name, Bases: shuffle.Doublet(p.TargetSeq(), rng)},
			}}
		}
		pi := pairInput{
			targetPath: filepath.Join(pdir, cfg.TargetName+".fa"),
			queryPath:  filepath.Join(pdir, cfg.QueryName+".fa"),
			pair:       p,
			shuffled:   w.shuffled,
			queryBP:    len(p.QuerySeq()),
		}
		if err := genome.WriteFASTAFile(pi.targetPath, target); err != nil {
			return nil, err
		}
		if err := genome.WriteFASTAFile(pi.queryPath, p.Query); err != nil {
			return nil, err
		}
		in.pairs = append(in.pairs, pi)
		if w.contigs > 0 {
			if err := in.splitContigs(i, w.contigs, filepath.Join(pdir, "contigs")); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// splitContigs cuts pair k's query into n near-equal contigs, each
// written both as submit text and as its own file for the one-shot
// cross-check, and appends them to in.contigs.
func (in *inputs) splitContigs(k, n int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := in.pairs[k]
	q := p.pair.QuerySeq()
	qname := p.pair.Query.Name
	for i := 0; i < n; i++ {
		start, end := i*len(q)/n, (i+1)*len(q)/n
		c := contigInput{index: len(in.contigs), pair: k, start: start, len: end - start, record: fmt.Sprintf("c%d", i)}
		c.fasta = fastaText(c.record, q[start:end])
		c.path = filepath.Join(dir, fmt.Sprintf("%s.%d.fa", qname, i))
		if err := os.WriteFile(c.path, []byte(c.fasta), 0o644); err != nil {
			return err
		}
		in.contigs = append(in.contigs, c)
	}
	return nil
}

// names returns the target and query assembly names of contig c's pair.
func (in *inputs) names(c contigInput) (target, query string) {
	p := in.pairs[c.pair].pair
	return p.Target.Name, p.Query.Name
}

func fastaText(name string, bases []byte) string {
	var b strings.Builder
	seq := &genome.Sequence{Name: name, Bases: bases}
	genome.WriteFASTA(&b, []*genome.Sequence{seq}, 80) //nolint:errcheck // strings.Builder never fails
	return b.String()
}
