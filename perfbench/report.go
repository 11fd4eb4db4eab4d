package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// metric is one reported figure. note carries what the value cannot:
// the numerator and denominator of a ratio, the percentile of a tail.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type report struct {
	Correct   bool
	Attempted int64
	Failed    int64
	lines     []metric // printed as text, in order
	result    []metric // the metrics of the final JSON line
	spanFile  string
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric as a text line, then the JSON result line.
func (r *report) write(w io.Writer) error {
	for _, m := range r.lines {
		line := fmt.Sprintf("%-28s %14.6g %-6s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  " + m.note
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if r.spanFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.spanFile)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jsonValue{}}
	for _, m := range r.result {
		out.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio returns num/den, 0 for an empty base, and the note naming both.
func ratio(num, den float64, numName, denName string) (float64, string) {
	note := fmt.Sprintf("(%s %.0f / %s %.0f)", numName, num, denName, den)
	if den == 0 {
		return 0, note
	}
	return num / den, note
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func buildReport(res *runResult) *report {
	rep := &report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	e2e := res.o.trace == 0
	layer := !e2e
	add := func(inJSON bool, name string, v float64, unit, note string) {
		m := metric{name, v, unit, note}
		rep.lines = append(rep.lines, m)
		if inJSON {
			rep.result = append(rep.result, m)
		}
	}

	// End to end: untraced phases only.
	var steps []int64
	var timedNs int64
	for _, p := range res.untraced {
		steps = append(steps, p.stepNs...)
		timedNs += p.endNs - p.startNs
	}
	sorted := sortedCopy(steps)
	setups := make([]int64, len(res.setups))
	for i, s := range res.setups {
		setups[i] = s.total()
	}
	p50 := percentile(sorted, 0.5)
	add(e2e, "setup_s", float64(median(setups))/1e9, "s", fmt.Sprintf("(median of %d set-ups)", len(setups)))
	add(e2e, "step_p50_ms", ms(p50), "ms", fmt.Sprintf("(%d steps)", len(sorted)))
	// The tail is taken per window of consecutive steps and combined by
	// the median, so one burst of host noise does not set it.
	var tails []int64
	pcts := map[float64]int{}
	for _, p := range res.untraced {
		t, ps := windowTails(p.stepNs)
		tails = append(tails, t...)
		for _, pc := range ps {
			pcts[pc]++
		}
	}
	tailNote := "(median over windows of <=999 steps of"
	for _, pc := range tailLadder {
		if n := pcts[pc]; n > 0 {
			tailNote += fmt.Sprintf(" %d x p%g", n, pc*100)
		}
	}
	add(e2e, "step_tail_ms", ms(median(tails)), "ms", tailNote+")")
	sps, note := ratio(float64(len(steps)), float64(timedNs)/1e9, "steps", "seconds")
	add(e2e, "steps_per_s", sps, "1/s", note)
	add(e2e, "peak_rss_mb", peakRSSMiB(), "MiB", "(getrusage maxrss)")
	er, note := ratio(float64(res.failed), float64(res.attempted), "failed", "attempted")
	add(false, "error_rate", er, "ratio", note)
	if e2e {
		return rep
	}

	// Counters: deltas over the untraced timed phases.
	var d snapshot
	var nsteps int64
	for _, p := range res.untraced {
		nsteps += int64(len(p.stepNs))
		a, b := p.after, p.before
		d.mpi.Messages += a.mpi.Messages - b.mpi.Messages
		d.mpi.Rendezvous += a.mpi.Rendezvous - b.mpi.Rendezvous
		d.mpi.SameAddrSkips += a.mpi.SameAddrSkips - b.mpi.SameAddrSkips
		d.mpi.Collectives += a.mpi.Collectives - b.mpi.Collectives
		d.mpi.PackElisions += a.mpi.PackElisions - b.mpi.PackElisions
		d.mpi.MatchProbes += a.mpi.MatchProbes - b.mpi.MatchProbes
		d.mpi.EagerPoolHits += a.mpi.EagerPoolHits - b.mpi.EagerPoolHits
		d.mpi.EagerPoolMisses += a.mpi.EagerPoolMisses - b.mpi.EagerPoolMisses
		d.fastColls += a.fastColls - b.fastColls
		d.wire.FramesSent += a.wire.FramesSent - b.wire.FramesSent
		d.wire.BytesSent += a.wire.BytesSent - b.wire.BytesSent
		d.wire.Reconnects += a.wire.Reconnects - b.wire.Reconnects
		d.wire.BatchesSent += a.wire.BatchesSent - b.wire.BatchesSent
		d.wire.BatchedFrames += a.wire.BatchedFrames - b.wire.BatchedFrames
		d.mallocs += a.mallocs - b.mallocs
		d.gcs += a.gcs - b.gcs
	}
	fs := float64(nsteps)
	msgs := float64(d.mpi.Messages)

	// Spans: traced phases.
	lt, byKind, perRank := analyze(res.traced)
	pct := func(k kind, p float64) int64 { return percentile(sortedCopy(byKind[k]), p) }
	calls := func(k kind) string { return fmt.Sprintf("(%d calls)", len(byKind[k])) }
	sum := func(k kind) (total int64) {
		for _, v := range byKind[k] {
			total += v
		}
		return total
	}
	perRankStep := func(k kind) float64 { return ms(sum(k)) / float64(max(lt.steps*res.ranks, 1)) }
	tracedSteps := float64(max(lt.steps, 1))

	add(layer, "hls.single_ms.p50", ms(pct(kSingle, 0.5)), "ms", calls(kSingle))
	add(layer, "hls.single_ms.p99", ms(pct(kSingle, 0.99)), "ms", "")
	bodies := len(byKind[kSingleBody])
	add(layer, "hls.single_body_ms", ms(sum(kSingleBody))/float64(max(bodies, 1)), "ms", fmt.Sprintf("(mean of %d bodies)", bodies))
	add(layer, "hls.shared_mb", float64(res.sharedBytes)/(1<<20), "MiB", "(Registry.Report: instances x bytes)")
	add(layer, "mpi.allreduce_us.p50", us(pct(kAllreduce, 0.5)), "us", calls(kAllreduce))
	add(layer, "mpi.allreduce_us.p99", us(pct(kAllreduce, 0.99)), "us", "")
	add(layer, "mpi.barrier_us.p50", us(pct(kBarrier, 0.5)), "us", calls(kBarrier))
	v, note := ratio(float64(d.fastColls), float64(d.mpi.Collectives), "shared+two-level", "collectives")
	add(layer, "mpi.coll_fastpath_frac", v, "ratio", note)
	add(layer, "mpi.typed_local_us.p50", us(pct(kTypedLocal, 0.5)), "us", calls(kTypedLocal))
	add(layer, "mpi.typed_remote_us.p50", us(pct(kTypedRemote, 0.5)), "us", calls(kTypedRemote))
	v, note = ratio(float64(d.mpi.PackElisions), float64(res.w.typedPerStep())*fs, "elisions", "typed sends")
	add(layer, "mpi.pack_elided_frac", v, "ratio", note)
	v, note = ratio(float64(d.mpi.Rendezvous), msgs, "rendezvous", "messages")
	add(layer, "mpi.rendezvous_frac", v, "ratio", note)
	v, note = ratio(msgs, fs, "messages", "steps")
	add(layer, "mpi.msgs_per_step", v, "count", note)
	add(layer, "mpi.recv_incast_us.p50", us(pct(kRecv, 0.5)), "us", calls(kRecv))
	v, note = ratio(float64(d.mpi.SameAddrSkips), msgs, "same-address skips", "messages")
	add(layer, "mpi.copy_elided_frac", v, "ratio", note)
	v, note = ratio(float64(d.mpi.EagerPoolHits), float64(d.mpi.EagerPoolHits+d.mpi.EagerPoolMisses), "hits", "acquisitions")
	add(layer, "mpi.pool_hit_frac", v, "ratio", note)
	v, note = ratio(float64(d.mpi.MatchProbes), msgs, "probes", "messages")
	add(layer, "mpi.match_probes_per_msg", v, "count", note)
	v, note = ratio(float64(d.wire.FramesSent), fs, "frames", "steps")
	add(layer, "wire.frames_per_step", v, "count", note)
	v, note = ratio(float64(d.wire.BytesSent), fs, "bytes", "steps")
	add(layer, "wire.bytes_per_step", v, "B", note)
	v, note = ratio(float64(d.wire.BatchedFrames), float64(d.wire.BatchesSent), "batched frames", "batches")
	add(layer, "wire.batch_fill", v, "count", note)
	add(layer, "wire.retries", float64(d.wire.Reconnects), "count", "(reconnects; the transport counts no retransmits)")
	add(layer, "ckpt.checkpoint_ms.p50", ms(pct(kCheckpoint, 0.5)), "ms", calls(kCheckpoint))
	v, note = ratio(float64(res.ckpt.bytes.Load()), float64(res.ckpt.checkpoints.Load()), "bytes", "checkpoints")
	add(layer, "ckpt.bytes", v, "B", note)
	add(layer, "kernel.interp_ms", perRankStep(kInterp), "ms", res.kernelNote(kInterp))
	add(layer, "kernel.relax_ms", perRankStep(kRelax), "ms", res.kernelNote(kRelax))
	add(layer, "kernel.render_ms", perRankStep(kRender), "ms", res.kernelNote(kRender))

	var waitFrac, maxKern, sumKern float64
	for _, pr := range perRank {
		if pr[0] > 0 {
			waitFrac = max(waitFrac, 1-float64(pr[1])/float64(pr[0]))
		}
		maxKern = max(maxKern, float64(pr[1]))
		sumKern += float64(pr[1])
	}
	add(layer, "wait.frac", waitFrac, "ratio", "(1 - kernel/step, max over ranks)")
	v, note = ratio(maxKern/1e6, sumKern/1e6/float64(max(len(perRank), 1)), "max kernel ms", "mean kernel ms")
	add(layer, "wait.imbalance", v, "ratio", note)
	v, note = ratio(float64(d.mallocs), fs, "mallocs", "steps")
	add(layer, "go.allocs_per_step", v, "count", note)
	add(layer, "go.gc_count", float64(d.gcs), "count", fmt.Sprintf("(over %d untraced steps)", nsteps))

	var st setupTimes
	for _, s := range res.setups {
		st.world += s.world
		st.connect += s.connect
		st.declare += s.declare
		st.commit += s.commit
		st.scene += s.scene
	}
	n := float64(max(len(res.setups), 1))
	add(layer, "setup.world_ms", ms(st.world)/n, "ms", "(mean over set-ups)")
	add(layer, "setup.connect_ms", ms(st.connect)/n, "ms", "")
	add(layer, "setup.declare_ms", ms(st.declare)/n, "ms", "")
	add(layer, "setup.commit_ms", ms(st.commit)/n, "ms", "")
	add(layer, "setup.scene_ms", ms(st.scene)/n, "ms", "")

	var traced []int64
	for _, p := range res.traced {
		traced = append(traced, p.stepNs...)
	}
	tracedP50 := percentile(sortedCopy(traced), 0.5)
	ov := 0.0
	if p50 > 0 {
		ov = float64(tracedP50)/float64(p50) - 1
	}
	add(layer, "trace.overhead_frac", ov, "ratio",
		fmt.Sprintf("(traced step p50 %.4g ms / untraced %.4g ms - 1)", ms(tracedP50), ms(p50)))

	// Rank 0's traced step, split into layer self times and wait.
	var covered int64
	for _, l := range []string{"hls", "mpi", "ckpt", "kernel", "bench"} {
		add(layer, "trace.self_"+l+"_ms", ms(lt.self[l])/tracedSteps, "ms", "(rank 0, per step)")
		covered += lt.self[l]
	}
	add(layer, "trace.wait_ms", ms(lt.wait)/tracedSteps, "ms", "(rank 0, per step)")
	covered += lt.wait
	v, note = ratio(float64(covered), float64(lt.step), "self+wait ns", "step ns")
	add(layer, "trace.coverage_frac", v, "ratio", note)

	if len(res.traced) > 0 {
		path := filepath.Join(res.o.out, "spans-"+res.o.workload+".json")
		if err := writeSpans(path, res.traced[0]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span file:", err)
		} else {
			rep.spanFile = path
		}
	}
	return rep
}
