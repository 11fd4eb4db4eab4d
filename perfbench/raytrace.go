package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"hls/internal/apps/tachyon"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// raytrace is the paper's Tachyon case (§V, Table IV): 4 ranks over two
// Worlds, 2 per node, joined by loopback TCP. The scene and the frame
// buffer are node-scope HLS variables; the scene is built inside Single
// at set-up. Each frame (step):
//
//  1. every rank renders its cyclic scanlines into the node's frame
//     buffer;
//  2. rank 0 gathers the other rows with Send/Recv — rows from its own
//     node land in the buffer they already sit in (the runtime skips the
//     copy), rows from the other node cross the wire as small eager
//     frames;
//  3. rank 0 compares the frame with the reference and poisons its
//     node's buffer, so the next frame passes only if every row is
//     rendered and delivered again;
//  4. a Barrier ends the frame.
//
// Every frame is the same view, so every step costs the same; the
// reference is a single-rank render of it from a privately built scene.
type raytrace struct {
	o          options
	cam        *tachyon.Camera
	ref        []uint8
	sceneBytes int64
}

const rayRanks = 4

func (rt *raytrace) prepare(o options) error {
	rt.o = o
	w, h := o.scale.frameW, o.scale.frameH
	rt.cam = tachyon.NewCamera(tachyon.V3{X: 0, Y: 3.5, Z: 8}, tachyon.V3{X: 0, Y: 0.8, Z: -6}, 55, w, h)
	scene := buildScene(o)
	rt.sceneBytes = scene.SceneBytes()
	rt.ref = make([]uint8, 3*w*h)
	for y := 0; y < h; y++ {
		scene.RenderRow(rt.cam, y, rt.ref[3*w*y:3*w*(y+1)])
	}
	if o.corruptRef {
		rt.ref[0] ^= 1
	}
	return nil
}

// sceneSeed fixes the scene geometry: the rays traced, and so the
// render cost, must not depend on the run's seed.
const sceneSeed = 2012

// buildScene builds the fixed geometry and colours its materials from
// the run's seed, which changes every pixel but no ray.
func buildScene(o options) *tachyon.Scene {
	s := tachyon.BuildScene(sceneSeed, o.scale.spheres, o.scale.triangles)
	rng := rand.New(rand.NewSource(o.seed))
	for i := range s.Materials {
		s.Materials[i].Color = tachyon.V3{X: 0.3 + 0.7*rng.Float64(), Y: 0.3 + 0.7*rng.Float64(), Z: 0.3 + 0.7*rng.Float64()}
	}
	return s
}

func (rt *raytrace) typedPerStep() int { return 0 }

func (rt *raytrace) kernel() (kind, string) {
	rays := rt.o.scale.frameW * rt.o.scale.frameH / rayRanks
	return kRender, fmt.Sprintf("(computed: %d primary rays per rank per step)", rays)
}

func (rt *raytrace) deploy(ep *epoch) ([]*mpi.World, func(*mpi.Task) error, error) {
	worlds, err := wiredWorlds(rt.o, rayRanks, 0x7ac4, &ep.setup)
	if err != nil {
		return nil, nil, err
	}
	w, h := rt.o.scale.frameW, rt.o.scale.frameH
	rowBytes := 3 * w
	t := clock.NowNs()
	regs := make([]*hls.Registry, len(worlds))
	scenes := make([]*hls.Var[tachyon.Scene], len(worlds))
	images := make([]*hls.Var[uint8], len(worlds))
	for i, wd := range worlds {
		regs[i] = hls.New(wd)
		scenes[i] = hls.Declare[tachyon.Scene](regs[i], "scene", topology.Node, 1,
			hls.WithAccountBytes[tachyon.Scene](rt.sceneBytes))
		images[i] = hls.Declare[uint8](regs[i], "image", topology.Node, 3*w*h)
	}
	ep.setup.declare = clock.NowNs() - t
	worldOf := map[*mpi.World]int{worlds[0]: 0, worlds[1]: 1}

	body := func(tk *mpi.Task) error {
		me, size := tk.Rank(), tk.Size()
		node := worldOf[tk.World()]
		ep.connect(tk)
		var image []uint8
		ep.timedSetup(tk, &ep.setup.declare, func() { image = images[node].Slice(tk) })
		var scene *tachyon.Scene
		ep.timedSetup(tk, &ep.setup.scene, func() {
			scenes[node].Single(tk, func(s []tachyon.Scene) {
				s[0] = *buildScene(rt.o)
			})
			scene = &scenes[node].Slice(tk)[0]
		})
		err := ep.loop(tk, func(_ int, tr *rankTrace) (bool, error) {
			t := tr.begin()
			for y := me; y < h; y += size {
				scene.RenderRow(rt.cam, y, image[y*rowBytes:(y+1)*rowBytes])
			}
			tr.end(kRender, t, -1, 0)
			ok := true
			if me == 0 {
				for y := 0; y < h; y++ {
					src := y % size
					if src == 0 {
						continue
					}
					t = tr.begin()
					mpi.Recv(tk, nil, image[y*rowBytes:(y+1)*rowBytes], src, y)
					tr.end(kRecv, t, src, y)
				}
				t = tr.begin()
				ok = bytes.Equal(image, rt.ref)
				for i := range image {
					image[i] = 0xa5
				}
				tr.end(kCheck, t, -1, 0)
			} else {
				for y := me; y < h; y += size {
					t = tr.begin()
					mpi.Send(tk, nil, image[y*rowBytes:(y+1)*rowBytes], 0, y)
					tr.end(kSend, t, -1, y)
				}
			}
			t = tr.begin()
			mpi.Barrier(tk, nil)
			tr.end(kBarrier, t, -1, 0)
			return ok, nil
		})
		if me == 0 {
			ep.sharedBytes = hlsBytes(regs...)
		}
		return err
	}
	return worlds, body, nil
}
