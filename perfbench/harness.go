package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/mpi"
	"hls/internal/trace"
	"hls/internal/wire"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	scale    scale
	// corruptRef flips one bit of the reference before the run, so every
	// checked step must fail: the self-test's proof that checks bite.
	corruptRef bool
}

// scale sizes every workload. fullScale is the benchmark; the self-test
// runs tinyScale.
type scale struct {
	// mesh-update: node table is tableSide², each rank interpolates
	// meshPoints points per step, checkpoint every ckptEvery steps.
	tableSide, meshPoints, ckptEvery int
	// halo-wire: n³ interior cells per rank, halo width h.
	haloN, haloH int
	// raytrace: W×H frame, scene of spheres + triangles.
	frameW, frameH, spheres, triangles int
	// warmup steps per epoch, before the first timed phase.
	warmup int
}

var fullScale = scale{
	tableSide: 384, meshPoints: 60000, ckptEvery: 200,
	haloN: 32, haloH: 2,
	frameW: 96, frameH: 96, spheres: 800, triangles: 400,
	warmup: 20,
}

var tinyScale = scale{
	tableSide: 16, meshPoints: 64, ckptEvery: 5,
	haloN: 6, haloH: 1,
	frameW: 16, frameH: 8, spheres: 4, triangles: 2,
	warmup: 2,
}

const (
	// epochs is how many times a run builds the whole deployment from
	// scratch and times its steps. setup_s is the median set-up; the
	// steps of all epochs are pooled, which averages out the placement
	// luck of a single deployment (halo-wire's median step differs by up
	// to 12% between deployments of one process).
	epochs = 9
	// tailWindow is the number of consecutive steps one tail estimate
	// covers. Below 1000 samples the highest percentile with ten beyond
	// it is p90 however fast the step, so a faster commit is never judged
	// on a more extreme percentile, and the median over many windows is
	// not set by one burst of host noise.
	tailWindow = 999
	// spanFileSteps bounds the steps written to the span file; the
	// per-layer figures use every traced step.
	spanFileSteps = 100
)

// clock is the time base of every timestamp the benchmark takes, so the
// spans of all ranks and both Worlds lie on one timeline.
var clock = trace.NewRecorder()

// workload is one benchmark scenario.
type workload interface {
	// prepare builds the reference results once per run.
	prepare(o options) error
	// deploy builds one fresh deployment. It records the setup phases
	// that run outside the ranks and returns the worlds and the rank
	// body, which ends in ep.loop.
	deploy(ep *epoch) ([]*mpi.World, func(*mpi.Task) error, error)
	// typedPerStep is the number of typed sends all ranks issue per
	// step, the base of the pack-elision ratio (0 when none).
	typedPerStep() int
	// kernel names the workload's compute kernel and the work one rank
	// does per step, computed from the sizes.
	kernel() (kind, string)
}

var workloads = map[string]func() workload{
	"mesh-update": func() workload { return &meshUpdate{} },
	"halo-wire":   func() workload { return &haloWire{} },
	"raytrace":    func() workload { return &raytrace{} },
}

// setupTimes are the phases of one deployment's set-up, in ns.
type setupTimes struct {
	world, connect, declare, commit, scene int64
}

func (s setupTimes) total() int64 { return s.world + s.connect + s.declare + s.commit + s.scene }

// phase is one timed stretch of closed-loop steps.
type phase struct {
	traced   bool
	budgetNs int64        // wall-clock length of the phase
	deadline int64        // clock ns, set by rank 0 when the phase starts
	stopAt   atomic.Int64 // index of the last step, published by rank 0

	stepNs         []int64 // rank 0 step durations
	startNs, endNs int64
	before, after  snapshot
	spans          [][]span // per rank, traced phases only
}

// epoch is one deployment's lifetime: set-up, warm-up, timed phases.
type epoch struct {
	o      options
	ranks  int
	worlds []*mpi.World
	setup  setupTimes
	phases []*phase

	attempted, failed atomic.Int64
	ckpt              ckptTally
	sharedBytes       int64
}

// timedSetup runs fn between two world barriers and, on rank 0, adds the
// elapsed time to *dst. Every rank must call it at the same point.
func (ep *epoch) timedSetup(tk *mpi.Task, dst *int64, fn func()) {
	mpi.Barrier(tk, nil)
	t0 := clock.NowNs()
	fn()
	mpi.Barrier(tk, nil)
	if tk.Rank() == 0 {
		*dst += clock.NowNs() - t0
	}
}

// connect times the first barrier of a wired deployment, which completes
// the TCP handshakes between the Worlds, into the connect set-up phase.
func (ep *epoch) connect(tk *mpi.Task) {
	t0 := clock.NowNs()
	mpi.Barrier(tk, nil)
	if tk.Rank() == 0 {
		ep.setup.connect += clock.NowNs() - t0
	}
}

// stepFunc runs step s on one rank. ok reports whether the step's result
// matched the reference (only rank 0 checks; other ranks return true).
type stepFunc func(s int, tr *rankTrace) (ok bool, err error)

// loop runs the warm-up and every timed phase of the epoch on one rank.
// Steps are closed-loop: each ends in a collective over all ranks, so a
// step starts only after the previous one finished everywhere.
func (ep *epoch) loop(tk *mpi.Task, step stepFunc) error {
	me := tk.Rank()
	s := 0
	run := func(s int, tr *rankTrace) (bool, error) {
		if me == 0 {
			ep.attempted.Add(1)
		}
		ok, err := step(s, tr)
		if me == 0 && (!ok || err != nil) {
			ep.failed.Add(1)
		}
		return ok, err
	}
	for ; s < ep.o.scale.warmup; s++ {
		if _, err := run(s, nil); err != nil {
			return err
		}
	}
	for _, p := range ep.phases {
		mpi.Barrier(tk, nil)
		if me == 0 {
			// Counters are read only here and after the last step, so
			// the loop itself carries no extra work.
			p.before = takeSnapshot(ep.worlds)
			p.startNs = clock.NowNs()
			p.deadline = p.startNs + p.budgetNs
		}
		mpi.Barrier(tk, nil)
		var tr *rankTrace
		if p.traced {
			tr = &rankTrace{spans: make([]span, 0, 4096)}
		}
		for ; ; s++ {
			t0 := clock.NowNs()
			if me == 0 && t0 >= p.deadline {
				p.stopAt.Store(int64(s))
			}
			if tr != nil {
				tr.step = int32(s)
			}
			_, err := run(s, tr)
			t1 := clock.NowNs()
			if tr != nil {
				tr.spans = append(tr.spans, span{k: kStep, step: int32(s), peer: -1, start: t0, end: t1})
			}
			if me == 0 {
				p.stepNs = append(p.stepNs, t1-t0)
			}
			if err != nil {
				return err
			}
			// The last collective of step s cannot complete before rank 0
			// entered it, and rank 0 publishes stopAt before that.
			if int64(s) >= p.stopAt.Load() {
				break
			}
		}
		if me == 0 {
			p.endNs = clock.NowNs()
			p.after = takeSnapshot(ep.worlds)
		}
		if tr != nil {
			p.spans[me] = tr.spans
		}
	}
	return nil
}

// snapshot is the counters read at the boundaries of a timed phase.
type snapshot struct {
	mpi          mpi.Stats
	wire         wire.Stats
	mallocs, gcs uint64
	fastColls    int64 // shared-memory or two-level collectives
}

func takeSnapshot(worlds []*mpi.World) snapshot {
	var sn snapshot
	for _, w := range worlds {
		st := w.Stats()
		sn.mpi.Messages += st.Messages
		sn.mpi.Rendezvous += st.Rendezvous
		sn.mpi.SameAddrSkips += st.SameAddrSkips
		sn.mpi.Collectives += st.Collectives
		sn.mpi.PackElisions += st.PackElisions
		sn.mpi.MatchProbes += st.MatchProbes
		sn.mpi.EagerPoolHits += st.EagerPoolHits
		sn.mpi.EagerPoolMisses += st.EagerPoolMisses
		if ws, ok := w.WireStats(); ok {
			sn.wire.FramesSent += ws.FramesSent
			sn.wire.BytesSent += ws.BytesSent
			sn.wire.Reconnects += ws.Reconnects
			sn.wire.BatchesSent += ws.BatchesSent
			sn.wire.BatchedFrames += ws.BatchedFrames
			// In a distributed world the node-local phases of a two-level
			// collective also count as shared ones; count the whole
			// collective once.
			sn.fastColls += st.TwoLevelCollectives
		} else {
			sn.fastColls += st.SharedCollectives
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn.mallocs, sn.gcs = ms.Mallocs, uint64(ms.NumGC)
	return sn
}

// runResult is everything one run measured, before it becomes metrics.
type runResult struct {
	o         options
	w         workload
	setups    []setupTimes
	untraced  []*phase
	traced    []*phase
	attempted int64
	failed    int64
	ranks     int
	ckpt      ckptTally
	// sharedBytes is the HLS memory of the last deployment, from
	// Registry.Report.
	sharedBytes int64
}

// kernelNote is the computed work behind a kernel metric.
func (r *runResult) kernelNote(k kind) string {
	if wk, work := r.w.kernel(); wk == k {
		return work
	}
	return "(not run by this workload)"
}

// ckptTally sums checkpoint payloads; it is the coordinator's Observer.
type ckptTally struct {
	checkpoints, bytes atomic.Int64
}

func (c *ckptTally) CheckpointDone(_ uint64, bytes int64, _ time.Duration, err error) {
	if err == nil {
		c.bytes.Add(bytes)
	}
}
func (c *ckptTally) RestoreDone(uint64, int64, time.Duration, int, error) {}
func (c *ckptTally) GenerationSkipped(uint64, string)                     {}

func (c *ckptTally) add(o *ckptTally) {
	c.checkpoints.Add(o.checkpoints.Load())
	c.bytes.Add(o.bytes.Load())
}

// run executes one workload run: the reference, then epochs deployments.
func run(o options) (*report, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want mesh-update, halo-wire or raytrace)", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptPath(o))
	w := mk()
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", o.workload, err)
	}
	res := &runResult{o: o, w: w}
	budget := o.seconds / epochs
	phasesPerEpoch := 1
	if o.trace == 1 {
		phasesPerEpoch = 2
		budget /= 2
	}
	for e := 0; e < epochs; e++ {
		ep := &epoch{o: o}
		for i := 0; i < phasesPerEpoch; i++ {
			p := &phase{traced: i == 1, budgetNs: int64(budget * 1e9)}
			p.stopAt.Store(math.MaxInt64)
			ep.phases = append(ep.phases, p)
		}
		// Every set-up starts from a heap handed back to the OS, so first
		// touch costs the same page faults in each deployment.
		debug.FreeOSMemory()
		worlds, body, err := w.deploy(ep)
		if err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", o.workload, err)
		}
		ep.worlds = worlds
		ep.ranks = worlds[0].Size()
		for _, p := range ep.phases {
			p.spans = make([][]span, ep.ranks)
		}
		runErr := runWorlds(worlds, body)
		res.setups = append(res.setups, ep.setup)
		for _, p := range ep.phases {
			if p.traced {
				res.traced = append(res.traced, p)
			} else {
				res.untraced = append(res.untraced, p)
			}
		}
		res.attempted += ep.attempted.Load()
		res.failed += ep.failed.Load()
		res.ranks = ep.ranks
		res.ckpt.add(&ep.ckpt)
		res.sharedBytes = ep.sharedBytes
		if runErr != nil {
			// The step in progress failed: report what was measured, as
			// an incorrect run, and stop.
			fmt.Fprintf(os.Stderr, "perfbench: %s: deployment %d: %v\n", o.workload, e, runErr)
			res.failed++
			break
		}
	}
	return buildReport(res), nil
}

// runWorlds runs every world of a deployment to completion.
func runWorlds(worlds []*mpi.World, body func(*mpi.Task) error) error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = w.Run(body)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ckptPath is this process's checkpoint directory.
func ckptPath(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("ckpt-%d", os.Getpid()))
}

// ckptDir returns a fresh checkpoint directory for one deployment.
func ckptDir(o options) (string, error) {
	dir := ckptPath(o)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{0.99, 0.9}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its value, and that number of samples.
func tail(sorted []int64) (p float64, v int64, beyond int) {
	n := len(sorted)
	for _, p := range tailLadder {
		if b := n - int(math.Ceil(p*float64(n))); b >= 10 {
			return p, percentile(sorted, p), b
		}
	}
	return 0.5, percentile(sorted, 0.5), n / 2
}

// windowTails splits steps into windows of tailWindow consecutive steps
// (a last, shorter window joins only with at least 100 steps) and
// returns each window's tail and the percentile it used.
func windowTails(steps []int64) (tails []int64, ps []float64) {
	for i := 0; i < len(steps); i += tailWindow {
		w := steps[i:min(i+tailWindow, len(steps))]
		if len(w) < 100 && i > 0 {
			break
		}
		p, v, _ := tail(sortedCopy(w))
		tails, ps = append(tails, v), append(ps, p)
	}
	return tails, ps
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []int64) int64 { return percentile(sortedCopy(xs), 0.5) }
