package main

import (
	"fmt"
	"math"
	"net"

	"hls/internal/mpi"
	"hls/internal/topology"
	"hls/internal/wire"
)

// haloWire is a 26-direction 3D halo exchange: 8 ranks in a 2×2×2 cube,
// each owning an (n+2h)³ float64 block, split along z across two Worlds
// joined by loopback TCP. Each step:
//
//  1. the ghost regions the exchange will fill are poisoned with NaN, so
//     a transfer that silently delivers nothing cannot pass the check;
//  2. every direction moves a TypeSubarray slab via SendrecvTyped (faces,
//     edges and corners: 16 KiB rendezvous faces beside 1 KiB and 64 B
//     eager edges and corners at n=32, h=2);
//  3. a relax sweep writes the interior's update out of place, so every
//     step moves and computes the same bytes;
//  4. an Allreduce gathers every rank's residual (the vector slot trick:
//     each rank adds only its own slot, so the sum is exact in any fold
//     order).
//
// The reference is the same cube in one in-process World: its residual
// vector is checked bitwise every step, and every block after the last
// step of each deployment (which covers the edge and corner ghosts the
// 7-point sweep never reads).
type haloWire struct {
	o        options
	n, h     int
	refRes   []float64
	refGrids [][]float64
	dirs     []haloDir
}

const (
	haloPerDim = 2
	haloRanks  = 8
)

// haloDir is one exchange direction with its committed slabs and the
// ghost box the slab lands in.
type haloDir struct {
	d          [3]int
	tag        int
	send, recv *mpi.Datatype
	sub, rst   [3]int // ghost box extent and start
}

func haloDirs(n, h int) []haloDir {
	m := n + 2*h
	sizes := []int{m, m, m}
	var dirs []haloDir
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				dir := haloDir{d: [3]int{dx, dy, dz}, tag: len(dirs)}
				var sst [3]int
				for i, di := range dir.d {
					switch di {
					case 0:
						dir.sub[i], sst[i], dir.rst[i] = n, h, h
					case 1:
						dir.sub[i], sst[i], dir.rst[i] = h, n, 0
					case -1:
						dir.sub[i], sst[i], dir.rst[i] = h, h, h+n
					}
				}
				dir.send = mpi.TypeSubarray(sizes, dir.sub[:], sst[:]).Commit()
				dir.recv = mpi.TypeSubarray(sizes, dir.sub[:], dir.rst[:]).Commit()
				dirs = append(dirs, dir)
			}
		}
	}
	return dirs
}

// haloCoord: x fastest, z slowest, so ranks 0-3 hold z=0 and 4-7 z=1.
func haloCoord(rank int) [3]int {
	return [3]int{rank % haloPerDim, rank / haloPerDim % haloPerDim, rank / (haloPerDim * haloPerDim)}
}

func haloRank(c [3]int) int {
	for _, v := range c {
		if v < 0 || v >= haloPerDim {
			return -1
		}
	}
	return (c[2]*haloPerDim+c[1])*haloPerDim + c[0]
}

// haloMove is one rank's transfer for one direction: send the boundary
// slab toward +d, receive the -d neighbour's slab into the ghost box.
type haloMove struct {
	dir              *haloDir
	sendTo, recvFrom int // -1 when absent
	remote           bool
}

func haloPlan(rank int, dirs []haloDir) []haloMove {
	c := haloCoord(rank)
	var plan []haloMove
	for i := range dirs {
		d := dirs[i].d
		mv := haloMove{
			dir:      &dirs[i],
			sendTo:   haloRank([3]int{c[0] + d[0], c[1] + d[1], c[2] + d[2]}),
			recvFrom: haloRank([3]int{c[0] - d[0], c[1] - d[1], c[2] - d[2]}),
		}
		mv.remote = d[2] != 0 // the z cut separates the two Worlds
		if mv.sendTo >= 0 || mv.recvFrom >= 0 {
			plan = append(plan, mv)
		}
	}
	return plan
}

// exchange runs one full exchange for one rank, one span per direction.
func exchange(tk *mpi.Task, grid []float64, plan []haloMove, tr *rankTrace) {
	for _, mv := range plan {
		t := tr.begin()
		switch {
		case mv.sendTo >= 0 && mv.recvFrom >= 0:
			mpi.SendrecvTyped(tk, nil, grid, mv.dir.send, mv.sendTo, mv.dir.tag, grid, mv.dir.recv, mv.recvFrom, mv.dir.tag)
		case mv.sendTo >= 0:
			mpi.SendTyped(tk, nil, grid, mv.dir.send, mv.sendTo, mv.dir.tag)
		default:
			mpi.RecvTyped(tk, nil, grid, mv.dir.recv, mv.recvFrom, mv.dir.tag)
		}
		k := kTypedLocal
		if mv.remote {
			k = kTypedRemote
		}
		tr.end(k, t, mv.recvFrom, mv.dir.tag)
	}
}

// poison fills every ghost box the plan receives into with NaN.
func poison(grid []float64, plan []haloMove, m int) {
	nan := math.NaN()
	for _, mv := range plan {
		if mv.recvFrom < 0 {
			continue
		}
		sub, st := mv.dir.sub, mv.dir.rst
		for z := st[2]; z < st[2]+sub[2]; z++ {
			for y := st[1]; y < st[1]+sub[1]; y++ {
				row := grid[(z*m+y)*m+st[0]:][:sub[0]]
				for i := range row {
					row[i] = nan
				}
			}
		}
	}
}

// relax writes one 7-point sweep of grid's interior into out and
// returns Σ|out-grid| in traversal order.
func relax(out, grid []float64, n, h int) float64 {
	m := n + 2*h
	res := 0.0
	for z := h; z < h+n; z++ {
		for y := h; y < h+n; y++ {
			for x := h; x < h+n; x++ {
				i := (z*m+y)*m + x
				v := 0.5*grid[i] + (grid[i-1]+grid[i+1]+grid[i-m]+grid[i+m]+grid[i-m*m]+grid[i+m*m])/12
				out[i] = v
				res += math.Abs(v - grid[i])
			}
		}
	}
	return res
}

func haloFill(grid []float64, seed int64, rank int) {
	for i := range grid {
		grid[i] = float64((int64(i)*31+int64(rank)*7919+seed)%1009) / 7
	}
}

// haloState is one rank's block, its plan and its residual vectors.
type haloState struct {
	grid, out []float64
	plan      []haloMove
	send, res []float64
}

func (hw *haloWire) newState(rank int, dirs []haloDir) *haloState {
	m := hw.n + 2*hw.h
	st := &haloState{
		grid: make([]float64, m*m*m), out: make([]float64, m*m*m),
		plan: haloPlan(rank, dirs),
		send: make([]float64, haloRanks), res: make([]float64, haloRanks),
	}
	haloFill(st.grid, hw.o.seed, rank)
	return st
}

func (hw *haloWire) step(tk *mpi.Task, st *haloState, tr *rankTrace) {
	t := tr.begin()
	poison(st.grid, st.plan, hw.n+2*hw.h)
	tr.end(kCheck, t, -1, 0)
	exchange(tk, st.grid, st.plan, tr)
	t = tr.begin()
	st.send[tk.Rank()] = relax(st.out, st.grid, hw.n, hw.h)
	tr.end(kRelax, t, -1, 0)
	t = tr.begin()
	mpi.Allreduce(tk, nil, st.send, st.res, mpi.OpSum)
	tr.end(kAllreduce, t, -1, 0)
}

func (hw *haloWire) prepare(o options) error {
	hw.o, hw.n, hw.h = o, o.scale.haloN, o.scale.haloH
	hw.dirs = haloDirs(hw.n, hw.h)
	w, err := mpi.NewWorld(mpi.Config{NumTasks: haloRanks, Timeout: runTimeout(o)})
	if err != nil {
		return err
	}
	hw.refGrids = make([][]float64, haloRanks)
	err = w.Run(func(tk *mpi.Task) error {
		st := hw.newState(tk.Rank(), hw.dirs)
		hw.step(tk, st, nil)
		hw.refGrids[tk.Rank()] = st.grid
		if tk.Rank() == 0 {
			hw.refRes = st.res
		}
		return nil
	})
	if err != nil {
		return err
	}
	if o.corruptRef {
		hw.refRes[0] = math.Float64frombits(math.Float64bits(hw.refRes[0]) ^ 1)
	}
	return nil
}

// typedPerStep counts the typed sends of one exchange over all ranks.
func (hw *haloWire) typedPerStep() int {
	n := 0
	for r := 0; r < haloRanks; r++ {
		for _, mv := range haloPlan(r, hw.dirs) {
			if mv.sendTo >= 0 {
				n++
			}
		}
	}
	return n
}

func (hw *haloWire) kernel() (kind, string) {
	// Per cell: 6 adds, a multiply and a divide for the update; a
	// subtract, an absolute value and an add for the residual.
	cells := hw.n * hw.n * hw.n
	return kRelax, fmt.Sprintf("(computed: %d cells, %d flops per rank per step)", cells, 11*cells)
}

// listenPair opens the two loopback listeners of a wired deployment.
func listenPair() ([]net.Listener, []string, error) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// wiredWorlds builds two Worlds of ranks tasks on a 2-node machine, one
// per node, joined by loopback TCP. It records the transport set-up in
// connect and the rest in world.
func wiredWorlds(o options, ranks int, key uint64, setup *setupTimes) ([]*mpi.World, error) {
	t0 := clock.NowNs()
	mach, err := topology.New(topology.Spec{
		Name: o.workload, Nodes: 2, SocketsPerNode: 1, CoresPerSocket: ranks / 2, ThreadsPerCore: 1,
	})
	if err != nil {
		return nil, err
	}
	t1 := clock.NowNs()
	lns, addrs, err := listenPair()
	if err != nil {
		return nil, err
	}
	trs := make([]wire.Transport, 2)
	for self, ln := range lns {
		tr, err := wire.NewTCP(wire.Config{Addrs: addrs, Self: self, WorldKey: key}, ln)
		if err != nil {
			for _, l := range lns[self:] {
				l.Close()
			}
			return nil, err
		}
		trs[self] = tr
	}
	t2 := clock.NowNs()
	worlds := make([]*mpi.World, 2)
	for self := range worlds {
		worlds[self], err = mpi.NewWorld(mpi.Config{
			NumTasks: ranks, Machine: mach, Timeout: runTimeout(o),
			Wire: &mpi.WireConfig{Transport: trs[self]},
		})
		if err != nil {
			return nil, err
		}
	}
	setup.world += (t1 - t0) + (clock.NowNs() - t2)
	setup.connect += t2 - t1
	return worlds, nil
}

func (hw *haloWire) deploy(ep *epoch) ([]*mpi.World, func(*mpi.Task) error, error) {
	worlds, err := wiredWorlds(hw.o, haloRanks, 0x4a10, &ep.setup)
	if err != nil {
		return nil, nil, err
	}
	t := clock.NowNs()
	dirs := haloDirs(hw.n, hw.h)
	ep.setup.commit = clock.NowNs() - t

	body := func(tk *mpi.Task) error {
		me := tk.Rank()
		ep.connect(tk)
		var st *haloState
		ep.timedSetup(tk, &ep.setup.declare, func() { st = hw.newState(me, dirs) })
		err := ep.loop(tk, func(s int, tr *rankTrace) (bool, error) {
			hw.step(tk, st, tr)
			return me != 0 || sameBits(st.res, hw.refRes), nil
		})
		// Every block must equal the reference after the final exchange;
		// each block counts as one more checked result.
		if err == nil {
			ep.attempted.Add(1)
			if !sameBits(st.grid, hw.refGrids[me]) {
				ep.failed.Add(1)
			}
		}
		return err
	}
	return worlds, body, nil
}
