package main

import (
	"bufio"
	"os"
	"path/filepath"

	"hls/internal/trace"
)

// kind names a span: the call into a layer the benchmark wrapped.
type kind uint8

const (
	kStep kind = iota
	kSingle
	kSingleBody
	kAllreduce
	kBarrier
	kCheckpoint
	kTypedLocal  // SendrecvTyped/SendTyped/RecvTyped, every peer in this World
	kTypedRemote // the same, some peer in the other World
	kSend
	kRecv
	kInterp
	kRelax
	kRender
	kCheck // the benchmark's own reference check and ghost poisoning
	numKinds
)

// kindInfo is the static description of a span kind. sync marks calls
// every rank enters together: the time before the last rank arrived is
// wait, not work of the layer.
var kindInfo = [numKinds]struct {
	name, layer string
	parent      kind
	sync        bool
}{
	kStep:        {"step", "step", kStep, false},
	kSingle:      {"hls.single", "hls", kStep, true},
	kSingleBody:  {"hls.single_body", "hls", kSingle, false},
	kAllreduce:   {"mpi.allreduce", "mpi", kStep, true},
	kBarrier:     {"mpi.barrier", "mpi", kStep, true},
	kCheckpoint:  {"ckpt.checkpoint", "ckpt", kStep, true},
	kTypedLocal:  {"mpi.typed_local", "mpi", kStep, false},
	kTypedRemote: {"mpi.typed_remote", "mpi", kStep, false},
	kSend:        {"mpi.send", "mpi", kStep, false},
	kRecv:        {"mpi.recv", "mpi", kStep, false},
	kInterp:      {"kernel.interp", "kernel", kStep, false},
	kRelax:       {"kernel.relax", "kernel", kStep, false},
	kRender:      {"kernel.render", "kernel", kStep, false},
	kCheck:       {"bench.check", "bench", kStep, false},
}

// span is one timed call. seq orders calls of one kind within a step
// (the row of a raytrace send/recv, the direction tag of a halo
// transfer); peer is the rank a receive waits on, -1 when none.
type span struct {
	k          kind
	peer       int16
	step, seq  int32
	start, end int64
}

// rankTrace collects one rank's spans of a traced phase. A nil
// *rankTrace is the untraced loop: begin returns 0 without reading the
// clock and end returns at once.
type rankTrace struct {
	step  int32
	spans []span
}

func (tr *rankTrace) begin() int64 {
	if tr == nil {
		return 0
	}
	return clock.NowNs()
}

func (tr *rankTrace) end(k kind, t0 int64, peer, seq int) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{k: k, peer: int16(peer), step: tr.step, seq: int32(seq), start: t0, end: clock.NowNs()})
}

// spanArgs annotate a span in the written trace file.
type spanArgs struct {
	Step   int32  `json:"step"`
	Parent string `json:"parent"`
	Seq    int32  `json:"seq"`
	Peer   int16  `json:"peer"`
}

// writeSpans writes the first spanFileSteps traced steps of a phase as a
// Chrome trace (one tid per rank) that hlstrace and obs.ReadTrace read.
func writeSpans(path string, p *phase) error {
	first := int32(-1)
	for _, sp := range p.spans[0] {
		if first < 0 || sp.step < first {
			first = sp.step
		}
	}
	// Timestamps stay on the clock they were taken with; a fresh recorder
	// only holds them, so the file carries this phase and nothing else.
	rec := trace.NewRecorder()
	for rank, spans := range p.spans {
		for _, sp := range spans {
			if sp.step >= first+spanFileSteps {
				continue
			}
			info := kindInfo[sp.k]
			parent := ""
			if sp.k != kStep {
				parent = kindInfo[info.parent].name
			}
			rec.SliceNs(rank, info.name, info.layer, sp.start, sp.end,
				spanArgs{Step: sp.step, Parent: parent, Seq: sp.seq, Peer: sp.peer})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := rec.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey identifies one call across ranks: the occurrence of a kind in
// a step (sync calls) or the send a receive waits on (p2p).
type spanKey struct {
	rank      int
	k         kind
	step, seq int32
}

// layerTimes is rank 0's traced step time and its split into the self
// time of each layer it called and the wait inside those calls. All in
// ns summed over the traced steps.
type layerTimes struct {
	steps int
	step  int64
	self  map[string]int64
	wait  int64
}

// analyze attributes the traced phases' spans. For a call every rank
// makes together, rank r waited from its own arrival until the last
// rank arrived (for hls single: until the body finished elsewhere); for
// a receive, until the matching sender started its send. Self time is
// the span minus its wait and its child spans.
func analyze(phases []*phase) (lt layerTimes, byKind [numKinds][]int64, perRank [][2]int64) {
	lt.self = map[string]int64{}
	for _, p := range phases {
		ranks := len(p.spans)
		if perRank == nil {
			perRank = make([][2]int64, ranks)
		}
		// lastArrival[k, step, occurrence] over ranks; bodyEnd per single;
		// sendStart per (sender, step, seq) for receives.
		lastArrival := map[spanKey]int64{}
		bodyEnd := map[spanKey]int64{}
		sendStart := map[spanKey]int64{}
		occ := func(spans []span) []int32 {
			// The occurrence index of every sync span within its step.
			out := make([]int32, len(spans))
			count := map[[2]int32]int32{}
			for i, sp := range spans {
				if kindInfo[sp.k].sync || sp.k == kSingleBody {
					key := [2]int32{int32(sp.k), sp.step}
					out[i] = count[key]
					count[key]++
				}
			}
			return out
		}
		occs := make([][]int32, ranks)
		for r, spans := range p.spans {
			occs[r] = occ(spans)
			for i, sp := range spans {
				switch {
				case kindInfo[sp.k].sync:
					key := spanKey{k: sp.k, step: sp.step, seq: occs[r][i]}
					if sp.start > lastArrival[key] {
						lastArrival[key] = sp.start
					}
				case sp.k == kSingleBody:
					bodyEnd[spanKey{k: kSingle, step: sp.step, seq: occs[r][i]}] = sp.end
				case sp.k == kSend || sp.k == kTypedLocal || sp.k == kTypedRemote:
					sendStart[spanKey{rank: r, k: sendKind(sp.k), step: sp.step, seq: sp.seq}] = sp.start
				}
			}
		}
		for r, spans := range p.spans {
			// child time per parent occurrence, for the single bodies
			// this rank ran itself.
			ownBody := map[spanKey]int64{}
			for i, sp := range spans {
				if sp.k == kSingleBody {
					ownBody[spanKey{k: kSingle, step: sp.step, seq: occs[r][i]}] = sp.end - sp.start
				}
			}
			for i, sp := range spans {
				dur := sp.end - sp.start
				byKind[sp.k] = append(byKind[sp.k], dur)
				switch sp.k {
				case kStep:
					perRank[r][0] += dur
				case kInterp, kRelax, kRender:
					perRank[r][1] += dur
				}
				if r != 0 {
					continue
				}
				if sp.k == kStep {
					lt.steps++
					lt.step += dur
					continue
				}
				if sp.k == kSingleBody {
					lt.self[kindInfo[sp.k].layer] += dur
					continue
				}
				var wait, child int64
				switch {
				case kindInfo[sp.k].sync:
					key := spanKey{k: sp.k, step: sp.step, seq: occs[r][i]}
					until := lastArrival[key]
					if sp.k == kSingle {
						child = ownBody[key]
						if child == 0 {
							until = max(until, bodyEnd[key])
						}
					}
					wait = clamp(until-sp.start, 0, dur-child)
				case sp.peer >= 0:
					if st, ok := sendStart[spanKey{rank: int(sp.peer), k: sendKind(sp.k), step: sp.step, seq: sp.seq}]; ok {
						wait = clamp(st-sp.start, 0, dur)
					}
				}
				lt.wait += wait
				lt.self[kindInfo[sp.k].layer] += dur - wait - child
			}
		}
	}
	return lt, byKind, perRank
}

// sendKind maps a receive-side span kind to the kind its sender records.
func sendKind(k kind) kind {
	switch k {
	case kRecv, kSend:
		return kSend
	case kTypedRemote, kTypedLocal:
		return kTypedLocal // both typed kinds share one key space
	}
	return k
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
