package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/maf"
	"darwinwga/internal/truth"
)

// truthSlop is the recall tolerance in bases: alignment wobble around
// an indel is not an error.
const truthSlop = 10

// digest is the hex SHA-256 of a MAF.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// parseMAF reads a complete MAF (header through the end-of-file
// trailer); a cut-short or malformed stream is an error.
func parseMAF(data []byte) ([]*maf.Block, error) {
	blocks, complete, err := maf.ReadVerified(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if !complete {
		return nil, fmt.Errorf("MAF is truncated (no %q trailer)", maf.Trailer)
	}
	return blocks, nil
}

// quality is agreement with the simulator's truth, pooled over inputs.
type quality struct {
	nearBP, orthoBP int64 // recall numerator and denominator
	fpBP            int64 // aligned bases with no orthologous partner
}

func (q *quality) add(o quality) {
	q.nearBP += o.nearBP
	q.orthoBP += o.orthoBP
	q.fpBP += o.fpBP
}

func (q quality) recall() float64 {
	if q.orthoBP == 0 {
		return 0
	}
	return float64(q.nearBP) / float64(q.orthoBP)
}

// blockHSP turns a MAF block back into a pipeline HSP. qOff shifts the
// strand-oriented query start into whole-query coordinates (contig
// jobs); identical counts identical aligned bases.
func blockHSP(b *maf.Block, qOff int) (h core.HSP, identical int) {
	h.Strand = b.QStrand
	h.TStart, h.QStart = b.TStart, b.QStart+qOff
	h.Score = int32(b.Score)
	for i := 0; i < len(b.TText); i++ {
		tc, qc := b.TText[i], b.QText[i]
		switch {
		case tc == '-':
			h.Ops = append(h.Ops, align.OpInsert)
		case qc == '-':
			h.Ops = append(h.Ops, align.OpDelete)
		default:
			h.Ops = append(h.Ops, align.OpMatch)
			if upper(tc) == upper(qc) {
				identical++
			}
		}
	}
	return h, identical
}

func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// scoreBlocks scores alignments against a pair's truth map. With a
// shuffled target nothing is orthologous: every identical aligned base
// (the matched bp of the paper's false-positive experiment) is a false
// positive and recall is not defined (orthoBP stays 0).
func scoreBlocks(p *evolve.Pair, shuffled bool, hsps []core.HSP, identical int) quality {
	if shuffled {
		return quality{fpBP: int64(identical)}
	}
	m := truth.Score(p, hsps, truthSlop)
	return quality{
		nearBP:  int64(m.NearBases),
		orthoBP: int64(m.TrueOrthologousBases),
		fpBP:    int64(m.AlignedBases - m.NearBases),
	}
}

// scoreMAF scores one whole-query MAF against its pair.
func scoreMAF(p *evolve.Pair, shuffled bool, data []byte) (quality, error) {
	blocks, err := parseMAF(data)
	if err != nil {
		return quality{}, err
	}
	var hsps []core.HSP
	ident := 0
	for _, b := range blocks {
		h, n := blockHSP(b, 0)
		hsps = append(hsps, h)
		ident += n
	}
	return scoreBlocks(p, shuffled, hsps, ident), nil
}

// scoreContigs scores pair k's per-contig MAFs of a coordinator
// workload as one alignment of its whole query, in contig order.
func scoreContigs(p *evolve.Pair, k int, contigs []contigInput, mafs [][]byte) (quality, error) {
	qLen := len(p.QuerySeq())
	var hsps []core.HSP
	ident := 0
	for _, c := range contigs {
		if c.pair != k {
			continue
		}
		blocks, err := parseMAF(mafs[c.index])
		if err != nil {
			return quality{}, fmt.Errorf("contig %d: %w", c.index, err)
		}
		for _, b := range blocks {
			off := c.start
			if b.QStrand == '-' {
				off = qLen - c.start - c.len
			}
			h, n := blockHSP(b, off)
			hsps = append(hsps, h)
			ident += n
		}
	}
	return scoreBlocks(p, false, hsps, ident), nil
}

// pins are MAF digests for the default seed, per workload, one per
// input (pair or contig) in input order.
type pins map[string][]string

const pinsFile = "digests.json"

// loadPins reads the pinned digests shipped next to the benchmark.
func loadPins(dir string) (pins, error) {
	data, err := os.ReadFile(filepath.Join(dir, pinsFile))
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", pinsFile, err)
	}
	return p, nil
}

// renameQuery rewrites a per-submission query record name back to the
// contig's canonical name in MAF sequence lines, so MAFs of repeated
// submissions compare byte for byte.
func renameQuery(data []byte, qname, from, to string) []byte {
	if from == to {
		return data
	}
	old := "\ns " + qname + "." + from + " "
	return []byte(strings.ReplaceAll(string(data), old, "\ns "+qname+"."+to+" "))
}
