package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collectiveWorkload drives every two-level operation over a 2-node
// world and records per-rank results, so runs under different collective
// modes can be compared bitwise.
func collectiveWorkload(results [][]int64, resultsMu *sync.Mutex) func(*Task) error {
	return func(task *Task) error {
		n := task.Size()
		r := task.Rank()
		var out []int64

		Barrier(task, nil)

		buf := []int64{0}
		if r == 1 {
			buf[0] = 4242 // root is a non-leader on node 0
		}
		Bcast(task, nil, buf, 1)
		out = append(out, buf[0])

		red := []int64{0}
		Reduce(task, nil, []int64{int64(r + 1)}, red, OpSum, 3)
		if r == 3 {
			out = append(out, red[0])
		} else {
			out = append(out, -1)
		}

		all := []int64{0}
		Allreduce(task, nil, []int64{int64(2*r + 1)}, all, OpMax)
		out = append(out, all[0])

		gath := make([]int64, n)
		Allgather(task, nil, []int64{int64(r * r)}, gath)
		out = append(out, gath...)

		Barrier(task, nil)

		resultsMu.Lock()
		results[r] = out
		resultsMu.Unlock()
		return nil
	}
}

func runCollectiveWorkload(t *testing.T, perNode int, mode CollectiveMode) ([][]int64, *World, *World) {
	t.Helper()
	results := make([][]int64, 2*perNode)
	var mu sync.Mutex
	w0, w1, err0, err1 := runWirePairWith(t, perNode, Config{Collectives: mode}, collectiveWorkload(results, &mu))
	if err0 != nil || err1 != nil {
		t.Fatalf("mode %v: err0=%v err1=%v", mode, err0, err1)
	}
	return results, w0, w1
}

// TestTwoLevelCollectivesMatchFlat runs the same collective workload
// under the flat channel algorithms and the two-level decomposition and
// demands bitwise-identical per-rank results, plus evidence that the
// two-level path actually engaged and cut cross-node frames.
func TestTwoLevelCollectivesMatchFlat(t *testing.T) {
	const perNode = 4
	flat, f0, _ := runCollectiveWorkload(t, perNode, CollChannels)
	two, t0, t1 := runCollectiveWorkload(t, perNode, CollTwoLevel)

	for r := range flat {
		if fmt.Sprint(flat[r]) != fmt.Sprint(two[r]) {
			t.Errorf("rank %d: flat %v, two-level %v", r, flat[r], two[r])
		}
	}
	for i, w := range []*World{t0, t1} {
		if got := w.Stats().TwoLevelCollectives; got == 0 {
			t.Errorf("world %d: TwoLevelCollectives = 0, want > 0", i)
		}
		if got := w.Stats().SharedCollectives; got == 0 {
			t.Errorf("world %d: SharedCollectives = 0, want > 0 (local phases)", i)
		}
	}
	if got := f0.Stats().TwoLevelCollectives; got != 0 {
		t.Errorf("flat world: TwoLevelCollectives = %d, want 0", got)
	}
	fs, _ := f0.WireStats()
	ts, _ := t0.WireStats()
	if ts.FramesSent >= fs.FramesSent {
		t.Errorf("two-level sent %d frames, flat sent %d; want strictly fewer", ts.FramesSent, fs.FramesSent)
	}
}

// TestTwoLevelAutoEngages checks that CollAuto selects the two-level
// path in a hook-less distributed world.
func TestTwoLevelAutoEngages(t *testing.T) {
	fn := func(task *Task) error {
		out := []int64{0}
		Allreduce(task, nil, []int64{int64(task.Rank() + 1)}, out, OpSum)
		n := int64(task.Size())
		if want := n * (n + 1) / 2; out[0] != want {
			return fmt.Errorf("rank %d: allreduce %d, want %d", task.Rank(), out[0], want)
		}
		return nil
	}
	w0, w1, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		if got := w.Stats().TwoLevelCollectives; got == 0 {
			t.Errorf("world %d: CollAuto did not engage two-level (count 0)", i)
		}
	}
}

// TestTwoLevelDerivedComms runs collectives on Split communicators under
// the two-level mode: a parity split leaves one member per node (leaders
// only), and a halves split leaves single-node communicators — both
// degenerate decompositions must still produce correct results.
func TestTwoLevelDerivedComms(t *testing.T) {
	const perNode = 4
	fn := func(task *Task) error {
		r := task.Rank()
		// Parity split: members alternate nodes.
		c := Split(task, nil, r%2, r)
		got := make([]int, c.Size())
		Allgather(task, c, []int{r}, got)
		for i, v := range got {
			if v%2 != r%2 || (i > 0 && got[i-1] >= v) {
				return fmt.Errorf("rank %d: parity split gathered %v", r, got)
			}
		}
		sum := []int64{0}
		Allreduce(task, c, []int64{int64(r)}, sum, OpSum)
		// Halves split: each communicator is confined to one node.
		h := Split(task, nil, r/perNode, r)
		hb := []int64{int64(r)}
		Bcast(task, h, hb, 0)
		if want := int64((r / perNode) * perNode); hb[0] != want {
			return fmt.Errorf("rank %d: halves bcast %d, want %d", r, hb[0], want)
		}
		Barrier(task, c)
		return nil
	}
	_, _, err0, err1 := runWirePairWith(t, perNode, Config{Collectives: CollTwoLevel}, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
}

// TestTwoLevelDeadLeaderCascades kills the leader of node 1 mid-
// collective: its local ranks must unwind through the aborted node-local
// tree, and every rank on node 0 — parked in its own node-local phase or
// in the cross-node leaders exchange — must cascade to typed errors
// instead of hanging (the shmColl.parent extension of the PR 4 abort
// integration).
func TestTwoLevelDeadLeaderCascades(t *testing.T) {
	const perNode = 2
	leader := perNode // lowest world rank on node 1
	fn := func(task *Task) error {
		if task.Rank() == leader {
			time.Sleep(50 * time.Millisecond) // let the others park in the collective
			panic("chaos: leader killed")
		}
		out := []int64{0}
		Allreduce(task, nil, []int64{1}, out, OpSum)
		return fmt.Errorf("rank %d: allreduce with dead leader completed", task.Rank())
	}
	_, _, err0, err1 := runWirePairWith(t, perNode, Config{Collectives: CollTwoLevel}, fn)
	var dead *DeadRankError
	if !errors.As(err0, &dead) || dead.Dead != leader {
		t.Fatalf("world 0: want DeadRankError{Dead: %d}, got %v", leader, err0)
	}
	var rf *RankFailure
	if !errors.As(err1, &rf) || rf.Rank != leader {
		t.Fatalf("world 1: want RankFailure{Rank: %d}, got %v", leader, err1)
	}
	dead = nil
	if !errors.As(err1, &dead) || dead.Dead != leader {
		t.Fatalf("world 1: surviving local rank: want DeadRankError{Dead: %d}, got %v", leader, err1)
	}
}

// TestTwoLevelSingleProcessIdentity checks that CollTwoLevel in a
// single-process world behaves exactly like the shared fast path — the
// "single-process path stays byte-identical" guarantee.
func TestTwoLevelSingleProcessIdentity(t *testing.T) {
	run := func(mode CollectiveMode) ([]int64, int64) {
		out := make([]int64, 4)
		w, err := Run(Config{NumTasks: 4, Collectives: mode, Timeout: 10 * time.Second}, func(task *Task) error {
			v := []int64{0}
			Allreduce(task, nil, []int64{int64(task.Rank() + 1)}, v, OpSum)
			out[task.Rank()] = v[0]
			return nil
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return out, w.Stats().SharedCollectives
	}
	shared, sharedN := run(CollShared)
	two, twoN := run(CollTwoLevel)
	if fmt.Sprint(shared) != fmt.Sprint(two) || sharedN != twoN {
		t.Fatalf("CollTwoLevel single-process: results %v/%v, shared count %d/%d", shared, two, sharedN, twoN)
	}
}
