package main

import (
	"context"
	"sync/atomic"

	"darwinwga/internal/align"
	"darwinwga/internal/core"
	"darwinwga/internal/dsoft"
	"darwinwga/internal/evolve"
	"darwinwga/internal/gact"
	"darwinwga/internal/genome"
)

// gactSample caps the anchors extended per class in the GACT-X drive;
// a junk anchor can cost millions of cells.
const gactSample = 16

// homologySlop is how far (in bases) an anchor may sit from its true
// orthologous position and still count as homologous.
const homologySlop = 64

// kernelStats are single-goroutine timings of the three kernels on one
// input's own data.
type kernelStats struct {
	dsoftNS, dsoftBP  int64
	candidates        int64
	bswNS, bswCells   int64
	bswTiles, bswPass int64
	gact              [2]gactClass // homologous, junk
}

type gactClass struct {
	anchors, cells, ns int64
}

const (
	homologous = 0
	junk       = 1
)

// driveKernels times D-SOFT seeding and the BSW filter over every
// candidate of both strands, then GACT-X on a deterministic sample of
// forward-strand filter survivors split by the truth map into
// homologous and junk anchors, each call under a span of job "kernels".
// Everything runs on this goroutine, so ns/cell is a per-core cost.
func driveKernels(tr *tracer, aligner *core.Aligner, query []byte, p *evolve.Pair, shuffled bool) (kernelStats, error) {
	const job = "kernels"
	var ks kernelStats
	cfg := aligner.Config()
	target := aligner.Target()
	sc := align.DefaultScoring()
	seeder, err := dsoft.NewSeeder(aligner.Index(), cfg.DSoft)
	if err != nil {
		return ks, err
	}
	ba := align.NewBandedAligner(sc, cfg.FilterBand)
	for _, q := range [][]byte{query, genome.ReverseComplement(query)} {
		var st dsoft.Stats
		var anchors []dsoft.Anchor
		ks.dsoftNS += int64(tr.do("dsoft.collect", job, 0, func() {
			anchors = seeder.Collect(q, 0, len(q), nil, &st, dsoft.NewScratch())
		}))
		ks.dsoftBP += int64(len(q))
		ks.candidates += int64(len(anchors))

		// One span for the whole loop: a span per tile would cost as
		// much as the tile.
		ks.bswNS += int64(tr.do("align.filter_tiles", job, 0, func() {
			for _, an := range anchors {
				res := ba.FilterTile(target, q, an.TPos, an.QPos, cfg.FilterTileSize)
				ks.bswCells += int64(res.Cells)
				ks.bswTiles++
				if res.Score >= cfg.FilterThreshold {
					ks.bswPass++
				}
			}
		}))
	}

	survivors, err := aligner.Anchors(query)
	if err != nil {
		return ks, err
	}
	var classes [2][]core.ExtensionAnchor
	for _, a := range survivors {
		c := junk
		if !shuffled && isHomologous(p, a.TPos, a.QPos) {
			c = homologous
		}
		classes[c] = append(classes[c], a)
	}
	ext, err := gact.NewExtender(sc, cfg.Extension)
	if err != nil {
		return ks, err
	}
	for c, list := range classes {
		for _, a := range sampleAnchors(list, gactSample) {
			var st gact.Stats
			ks.gact[c].ns += int64(tr.do("gact.extend", job, 0, func() {
				ext.Extend(target, query, a.TPos, a.QPos, &st)
			}))
			ks.gact[c].cells += int64(st.Cells)
			ks.gact[c].anchors++
		}
	}
	return ks, nil
}

// isHomologous reports whether a forward-strand anchor lies within
// homologySlop of its target base's true forward-strand partner.
func isHomologous(p *evolve.Pair, tPos, qPos int) bool {
	m := p.Map
	for _, t := range []int{tPos, tPos - 1} { // a Vmax anchor is an exclusive end
		if t < 0 || t >= len(m.QPos) || m.QPos[t] == evolve.Unmapped || m.Reverse[t] {
			continue
		}
		d := int(m.QPos[t]) - qPos
		if d < 0 {
			d = -d
		}
		if d <= homologySlop {
			return true
		}
	}
	return false
}

// sampleAnchors picks at most n anchors spread evenly over list (which
// is in the pipeline's canonical order), deterministically.
func sampleAnchors(list []core.ExtensionAnchor, n int) []core.ExtensionAnchor {
	if len(list) <= n {
		return list
	}
	out := make([]core.ExtensionAnchor, n)
	for i := range out {
		out[i] = list[i*len(list)/n]
	}
	return out
}

// shardStats is the work-unit plane replayed in-process on one query.
type shardStats struct {
	units, extended, frames, kept int
	unitSecs                      sample
}

// driveShards decomposes a query the way the coordinator's sharded
// dispatch does, runs every unit, and merges each strand's frames, each
// call under a span of job. Extensions are counted through the
// pipeline's public per-anchor FaultHook, which a unit calls once for
// every anchor it extends.
func driveShards(tr *tracer, job string, aligner *core.Aligner, query []byte, unitsPerStrand int) (shardStats, error) {
	var ss shardStats
	cfg := aligner.Config()
	var extended atomic.Int64
	hooked := cfg
	hooked.FaultHook = func(stage string, _ int) {
		if stage == core.StageExtension {
			extended.Add(1)
		}
	}
	aligner, err := aligner.WithConfig(hooked)
	if err != nil {
		return ss, err
	}
	plan := core.PlanShards(&cfg, len(query), unitsPerStrand)
	byStrand := map[byte][]core.ShardFrame{}
	oriented := map[byte][]byte{'+': query, '-': genome.ReverseComplement(query)}
	for _, u := range plan {
		var frames []core.ShardFrame
		var err error
		d := tr.do("core.align_shard_unit", job, 0, func() {
			frames, _, err = aligner.AlignShardUnit(context.Background(), oriented[u.Strand], u)
		})
		if err != nil {
			return ss, err
		}
		ss.unitSecs = append(ss.unitSecs, secs(d))
		ss.units++
		ss.frames += len(frames)
		byStrand[u.Strand] = append(byStrand[u.Strand], frames...)
	}
	for _, frames := range byStrand {
		tr.do("core.merge_shard_frames", job, 0, func() {
			keep, _ := core.MergeShardFrames(frames, cfg.AbsorbBand)
			ss.kept += len(keep)
		})
	}
	ss.extended = int(extended.Load())
	return ss, nil
}
