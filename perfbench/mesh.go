package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hls/internal/ckpt"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// meshUpdate is the paper's §V-A1 interpolation benchmark with Table I's
// "+u" write pattern, on one World of 4 ranks over a 1-node, 2-socket
// machine. Each step:
//
//  1. the node-scope HLS table is rewritten inside Var.Single;
//  2. every rank interpolates its own fixed points in the table;
//  3. an Allreduce gathers every rank's sum (the residual vector);
//  4. every ckptEvery steps, a coordinated checkpoint commits the table
//     and the ranks' meshes.
//
// The table of step s is the table of input s mod meshInputs, so the
// reference — the same interpolation over private table copies, no HLS
// and no MPI — is computed once per input instead of replaying every
// timed step.
type meshUpdate struct {
	o      options
	side   int
	points [][]float64 // per rank: x0, y0, x1, y1, ...
	ref    [][]float64 // per input: every rank's interpolation sum
}

const (
	meshRanks  = 4
	meshInputs = 8
)

// fillTable writes the node table for input in.
func fillTable(data []float64, seed int64, in int) {
	for i := range data {
		data[i] = float64((int64(i)*2654435761+int64(in)*97+seed)%1000) / 1000
	}
}

// interpolate bilinearly samples table (side×side) at every point and
// stores the values in out; it returns their sum in index order.
func interpolate(out, table, pts []float64, side int) float64 {
	sum := 0.0
	for c := range out {
		x, y := pts[2*c], pts[2*c+1]
		ix, iy := int(x), int(y)
		fx, fy := x-float64(ix), y-float64(iy)
		i := iy*side + ix
		v := table[i]*(1-fx)*(1-fy) + table[i+1]*fx*(1-fy) +
			table[i+side]*(1-fx)*fy + table[i+side+1]*fx*fy
		out[c] = v
		sum += v
	}
	return sum
}

func (m *meshUpdate) prepare(o options) error {
	m.o = o
	m.side = o.scale.tableSide
	m.points = make([][]float64, meshRanks)
	for r := range m.points {
		rng := rand.New(rand.NewSource(o.seed*1000003 + int64(r)))
		pts := make([]float64, 2*o.scale.meshPoints)
		for i := range pts {
			pts[i] = rng.Float64() * float64(m.side-1)
		}
		m.points[r] = pts
	}
	table := make([]float64, m.side*m.side)
	out := make([]float64, o.scale.meshPoints)
	m.ref = make([][]float64, meshInputs)
	for in := range m.ref {
		fillTable(table, o.seed, in)
		m.ref[in] = make([]float64, meshRanks)
		for r := range m.ref[in] {
			m.ref[in][r] = interpolate(out, table, m.points[r], m.side)
		}
	}
	if o.corruptRef {
		m.ref[0][0] = math.Float64frombits(math.Float64bits(m.ref[0][0]) ^ 1)
	}
	return nil
}

func (m *meshUpdate) typedPerStep() int { return 0 }

func (m *meshUpdate) kernel() (kind, string) {
	// 4 table loads + 2 point loads + 1 store of 8 B per point.
	return kInterp, fmt.Sprintf("(computed: %d points, %d B moved per rank per step)",
		m.o.scale.meshPoints, 7*8*m.o.scale.meshPoints)
}

func (m *meshUpdate) deploy(ep *epoch) ([]*mpi.World, func(*mpi.Task) error, error) {
	dir, err := ckptDir(m.o)
	if err != nil {
		return nil, nil, err
	}
	t0 := clock.NowNs()
	mach, err := topology.New(topology.Spec{
		Name: "mesh-update", Nodes: 1, SocketsPerNode: 2, CoresPerSocket: meshRanks / 2, ThreadsPerCore: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: meshRanks, Machine: mach, Timeout: runTimeout(m.o),
	})
	if err != nil {
		return nil, nil, err
	}
	reg := hls.New(w)
	t1 := clock.NowNs()
	ep.setup.world = t1 - t0

	table := hls.Declare[float64](reg, "mesh_table", topology.Node, m.side*m.side,
		hls.WithInit(func(_ int, d []float64) { fillTable(d, m.o.seed, 0) }))
	meshes := make([][]float64, meshRanks)
	coord := ckpt.New(ckpt.Config{Dir: dir, Keep: 2, Observer: &ep.ckpt})
	coord.Register(ckpt.HLSVar(table), ckpt.Slice("mesh", func(t *mpi.Task) []float64 { return meshes[t.Rank()] }))
	ep.setup.declare = clock.NowNs() - t1

	body := func(tk *mpi.Task) error {
		me := tk.Rank()
		var tbl, out, pts []float64
		// Declare plus first touch: the lazy table instance and the
		// rank's private mesh.
		ep.timedSetup(tk, &ep.setup.declare, func() {
			tbl = table.Slice(tk)
			out = make([]float64, m.o.scale.meshPoints)
			pts = append([]float64(nil), m.points[me]...)
			meshes[me] = out
		})
		send := make([]float64, meshRanks)
		recv := make([]float64, meshRanks)
		err := ep.loop(tk, func(s int, tr *rankTrace) (bool, error) {
			in := s % meshInputs
			t := tr.begin()
			table.Single(tk, func(d []float64) {
				b := tr.begin()
				fillTable(d, m.o.seed, in)
				tr.end(kSingleBody, b, -1, 0)
			})
			tr.end(kSingle, t, -1, 0)

			t = tr.begin()
			send[me] = interpolate(out, tbl, pts, m.side)
			tr.end(kInterp, t, -1, 0)

			t = tr.begin()
			mpi.Allreduce(tk, nil, send, recv, mpi.OpSum)
			tr.end(kAllreduce, t, -1, 0)
			ok := me != 0 || sameBits(recv, m.ref[in])

			if (s+1)%m.o.scale.ckptEvery == 0 {
				t = tr.begin()
				_, err := coord.Checkpoint(tk)
				tr.end(kCheckpoint, t, -1, 0)
				if err != nil {
					return false, fmt.Errorf("checkpoint at step %d: %w", s, err)
				}
				if me == 0 {
					ep.ckpt.checkpoints.Add(1)
				}
			}
			return ok, nil
		})
		if me == 0 {
			ep.sharedBytes = hlsBytes(reg)
		}
		return err
	}
	return []*mpi.World{w}, body, nil
}

// hlsBytes is the memory the registry's materialized instances hold.
func hlsBytes(regs ...*hls.Registry) int64 {
	var b int64
	for _, r := range regs {
		for _, v := range r.Report() {
			b += int64(v.Instances) * v.BytesPerInstance
		}
	}
	return b
}

// sameBits reports whether two vectors are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runTimeout bounds one deployment: a hung step fails the run well
// inside the three-minute limit instead of blocking it.
func runTimeout(o options) time.Duration {
	return time.Duration(o.seconds*float64(time.Second)) + 60*time.Second
}
