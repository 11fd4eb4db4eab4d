package tachyon

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/topology"
)

func TestSphereIntersection(t *testing.T) {
	s := Sphere(V3{0, 0, -5}, 1, 0)
	if tt, ok := s.Intersect(Ray{O: V3{}, D: V3{0, 0, -1}}); !ok || math.Abs(tt-4) > 1e-12 {
		t.Errorf("head-on hit t=%v ok=%v, want 4", tt, ok)
	}
	if _, ok := s.Intersect(Ray{O: V3{}, D: V3{0, 1, 0}}); ok {
		t.Error("miss reported as hit")
	}
	// From inside: the far intersection.
	if tt, ok := s.Intersect(Ray{O: V3{0, 0, -5}, D: V3{0, 0, -1}}); !ok || math.Abs(tt-1) > 1e-12 {
		t.Errorf("inside hit t=%v ok=%v, want 1", tt, ok)
	}
}

func TestTriangleIntersection(t *testing.T) {
	tr := Triangle(V3{-1, -1, -3}, V3{1, -1, -3}, V3{0, 1, -3}, 0)
	if tt, ok := tr.Intersect(Ray{O: V3{}, D: V3{0, 0, -1}}); !ok || math.Abs(tt-3) > 1e-12 {
		t.Errorf("centroid hit t=%v ok=%v", tt, ok)
	}
	if _, ok := tr.Intersect(Ray{O: V3{2, 2, 0}, D: V3{0, 0, -1}}); ok {
		t.Error("outside-edge ray hit")
	}
	if _, ok := tr.Intersect(Ray{O: V3{}, D: V3{0, 1, 0}}); ok {
		t.Error("parallel ray hit")
	}
}

func TestPlaneIntersection(t *testing.T) {
	p := Plane(V3{0, 0, 0}, V3{0, 1, 0}, 0)
	if tt, ok := p.Intersect(Ray{O: V3{0, 2, 0}, D: V3{0, -1, 0}}); !ok || math.Abs(tt-2) > 1e-12 {
		t.Errorf("plane hit t=%v ok=%v", tt, ok)
	}
	if _, ok := p.Intersect(Ray{O: V3{0, 2, 0}, D: V3{1, 0, 0}}); ok {
		t.Error("parallel ray hit plane")
	}
}

func TestBVHMatchesBruteForce(t *testing.T) {
	scene := BuildScene(3, 60, 20)
	flatHits := 0
	for i, r := range testRays(600, 9) {
		bestT := math.Inf(1)
		bestIdx := int32(-1)
		for j := range scene.Shapes {
			if scene.Shapes[j].Kind == kindPlane {
				continue
			}
			if tt, ok := scene.Shapes[j].Intersect(r); ok && tt < bestT {
				bestT, bestIdx = tt, int32(j)
			}
		}
		gt, gi, gok := scene.BVH.Intersect(scene.Shapes, r, math.Inf(1))
		if gok != (bestIdx >= 0) {
			t.Fatalf("ray %d: BVH ok=%v brute=%v", i, gok, bestIdx >= 0)
		}
		if gok && (gi != bestIdx || gt != bestT) {
			t.Fatalf("ray %d: BVH (%v,%d) brute (%v,%d)", i, gt, gi, bestT, bestIdx)
		}
		if gok && (r.D.X == 0 || r.D.Y == 0 || r.D.Z == 0) {
			flatHits++
		}
	}
	if flatHits == 0 {
		t.Fatal("no ray with a zero direction component hit anything")
	}
}

// testRays returns random rays over the scene volume; every other one has
// one or two direction components exactly zero, so box tests take the
// flat-axis containment path.
func testRays(n int, seed int64) []Ray {
	rng := rand.New(rand.NewSource(seed))
	rays := make([]Ray, n)
	for i := range rays {
		d := V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		switch i % 6 {
		case 1:
			d.Y = 0
		case 3:
			d.X, d.Z = 0, 0
		case 5:
			d.Z = 0
		}
		rays[i] = Ray{
			O: V3{-8 + 16*rng.Float64(), 6 * rng.Float64(), 4 - 18*rng.Float64()},
			D: d.Unit(),
		}
	}
	return rays
}

// TestBVHFlatRayOnBoxFace sends a ray with a zero Y component along the
// bottom face of a box: the slab distances there are 0*Inf = NaN, so only
// the containment test on the flat axis finds the triangle edge it hits.
func TestBVHFlatRayOnBoxFace(t *testing.T) {
	shapes := []Shape{
		Triangle(V3{0, 0, -5}, V3{1, 0, -5}, V3{0.5, 1, -4.5}, 0),
		Sphere(V3{3, 1, -6}, 1, 0),
	}
	bvh := BuildBVH(shapes)
	r := Ray{O: V3{0.5, 0, 0}, D: V3{0, 0, -1}}
	want, ok := shapes[0].Intersect(r)
	if !ok {
		t.Fatal("ray misses the triangle edge itself")
	}
	if got, idx, ok := bvh.Intersect(shapes, r, math.Inf(1)); !ok || idx != 0 || got != want {
		t.Errorf("Intersect = (%v, %d, %v), want (%v, 0, true)", got, idx, ok, want)
	}
	if !bvh.Any(shapes, r, want+1) {
		t.Error("Any missed the triangle edge")
	}
}

func TestBVHAnyMatchesBruteForce(t *testing.T) {
	scene := BuildScene(4, 80, 30)
	var yes, no int
	for i, r := range testRays(400, 13) {
		for _, tMax := range []float64{1e-6, 0.5, 2, 5, 12, math.Inf(1)} {
			want := false
			for j := range scene.Shapes {
				if scene.Shapes[j].Kind == kindPlane {
					continue
				}
				if tt, ok := scene.Shapes[j].Intersect(r); ok && tt < tMax {
					want = true
					break
				}
			}
			if got := scene.BVH.Any(scene.Shapes, r, tMax); got != want {
				t.Fatalf("ray %d %v tMax %v: Any = %v, brute force %v", i, r, tMax, got, want)
			}
			if want {
				yes++
			} else {
				no++
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("sweep is one-sided: %d hits, %d misses", yes, no)
	}
}

func TestShadowing(t *testing.T) {
	// A sphere between the light and the plane must darken the plane
	// point beneath it.
	s := &Scene{
		Ambient: V3{0.1, 0.1, 0.1},
		Bg:      V3{},
		Materials: []Material{
			{Color: V3{1, 1, 1}},
		},
		Lights: []Light{{Pos: V3{0, 10, 0}, Color: V3{1, 1, 1}}},
	}
	s.Shapes = append(s.Shapes, Plane(V3{0, 0, 0}, V3{0, 1, 0}, 0))
	s.Shapes = append(s.Shapes, Sphere(V3{0, 5, 0}, 1, 0))
	s.Planes = []int32{0}
	s.BVH = BuildBVH(s.Shapes)

	shadowed := s.Trace(Ray{O: V3{0, 1, 3}, D: V3{0, -0.31623, -0.94868}.Unit()}, 0) // hits plane near origin
	lit := s.Trace(Ray{O: V3{6, 1, 3}, D: V3{0, -0.31623, -0.94868}.Unit()}, 0)      // plane far from the sphere
	if shadowed.Norm() >= lit.Norm() {
		t.Errorf("shadowed point (%v) not darker than lit point (%v)", shadowed, lit)
	}
}

func TestReflectionContributes(t *testing.T) {
	mk := func(reflect float64) V3 {
		s := &Scene{
			Ambient:   V3{0.05, 0.05, 0.05},
			Bg:        V3{},
			Materials: []Material{{Color: V3{0.2, 0.2, 0.2}, Reflect: reflect}, {Color: V3{1, 0, 0}}},
			Lights:    []Light{{Pos: V3{0, 5, 5}, Color: V3{1, 1, 1}}},
		}
		// Mirror sphere facing a red sphere.
		s.Shapes = append(s.Shapes, Sphere(V3{0, 0, -5}, 1, 0))
		s.Shapes = append(s.Shapes, Sphere(V3{0, 0, 5}, 1, 1))
		s.BVH = BuildBVH(s.Shapes)
		return s.Trace(Ray{O: V3{0, 0, 0}, D: V3{0, 0, -1}}, 0)
	}
	dull := mk(0)
	shiny := mk(0.9)
	if shiny.X <= dull.X {
		t.Errorf("reflective sphere (%v) not redder than dull one (%v)", shiny, dull)
	}
}

func TestRenderDeterministic(t *testing.T) {
	scene := BuildScene(5, 20, 5)
	cam := NewCamera(V3{0, 3, 8}, V3{0, 0.8, -6}, 55, 32, 32)
	a := make([]uint8, 3*32)
	b := make([]uint8, 3*32)
	scene.RenderRow(cam, 16, a)
	scene.RenderRow(cam, 16, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render not deterministic")
		}
	}
	nonzero := false
	for _, v := range a {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("rendered row is all black")
	}
}

func runApp(t *testing.T, cfg Config, machineNodes int) (Diagnostics, mpi.Stats) {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = topology.HarpertownCluster(machineNodes)
	}
	w, err := mpi.NewWorld(mpi.Config{NumTasks: cfg.Tasks, Machine: cfg.Machine,
		Pin: topology.PinCorePerTask, Timeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w)
	app, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var diag Diagnostics
	if err := w.Run(func(task *mpi.Task) error {
		d, err := app.Run(task)
		if err != nil {
			return err
		}
		if task.Rank() == 0 {
			diag = d
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return diag, w.Stats()
}

func TestHLSImageIdenticalToPrivate(t *testing.T) {
	base := Config{Tasks: 4, W: 24, H: 24, Frames: 2, Spheres: 12, Triangles: 4, Seed: 7}
	priv := base
	priv.UseHLS = false
	shared := base
	shared.UseHLS = true
	dp, _ := runApp(t, priv, 1)
	ds, stats := runApp(t, shared, 1)
	if len(dp.FrameChecksums) != 2 || len(ds.FrameChecksums) != 2 {
		t.Fatalf("frame counts: %d vs %d", len(dp.FrameChecksums), len(ds.FrameChecksums))
	}
	for i := range dp.FrameChecksums {
		if dp.FrameChecksums[i] != ds.FrameChecksums[i] {
			t.Errorf("frame %d differs between HLS and private", i)
		}
	}
	// All intra-node sends to rank 0 must have been elided.
	if stats.SameAddrSkips == 0 {
		t.Error("no same-address elisions with a node-shared image")
	}
}

func TestPrivateImageHasNoElision(t *testing.T) {
	cfg := Config{Tasks: 4, W: 16, H: 16, Frames: 1, Spheres: 6, Triangles: 2, Seed: 7}
	_, stats := runApp(t, cfg, 1)
	if stats.SameAddrSkips != 0 {
		t.Errorf("private image elided %d copies", stats.SameAddrSkips)
	}
}

func TestCrossNodeAssembly(t *testing.T) {
	// 2 nodes x 8 cores: rows from node 1 must still arrive correctly
	// even though node 1's shared image is a different instance.
	cfg := Config{Tasks: 16, W: 16, H: 16, Frames: 1, Spheres: 8, Triangles: 2,
		Seed: 9, UseHLS: true}
	dShared, stats := runApp(t, cfg, 2)
	cfg.UseHLS = false
	dPriv, _ := runApp(t, cfg, 2)
	if dShared.FrameChecksums[0] != dPriv.FrameChecksums[0] {
		t.Error("cross-node HLS frame differs from private frame")
	}
	// Only node-0 tasks (ranks 1..7) share rank 0's image: elisions > 0
	// but fewer than total sends.
	if stats.SameAddrSkips == 0 {
		t.Error("no elisions on rank 0's node")
	}
}

func TestMemoryAccountingTable4Shape(t *testing.T) {
	machine := topology.HarpertownCluster(1)
	runWith := func(useHLS bool) float64 {
		pin := topology.MustPin(machine, 8, topology.PinCorePerTask)
		tracker := memsim.NewTracker(machine, pin)
		w, err := mpi.NewWorld(mpi.Config{NumTasks: 8, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 120 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		reg := hls.New(w, hls.WithTracker(tracker))
		app, err := New(reg, Config{Machine: machine, Tasks: 8, W: 16, H: 16,
			Frames: 1, Spheres: 4, Triangles: 1, UseHLS: useHLS, Tracker: tracker, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(task *mpi.Task) error {
			_, err := app.Run(task)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return tracker.Report().AvgBytes
	}
	saving := runWith(false) - runWith(true)
	want := 7 * float64(560<<20) // 7 x (377+183) MB ≈ 3.9 GB, Table IV's arithmetic
	if math.Abs(saving-want) > 0.02*want {
		t.Errorf("saving = %.0f MB, want ≈ %.0f MB", memsim.MB(saving), memsim.MB(want))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(nil, Config{Machine: topology.HarpertownCluster(1), Tasks: 8, W: 8, H: 4, Frames: 1}); err == nil {
		t.Error("H < Tasks accepted")
	}
}

func TestEncodePPM(t *testing.T) {
	img := []uint8{255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 9, 9}
	var buf strings.Builder
	if err := EncodePPM(&buf, img, 2, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P6\n2 2\n255\n") {
		t.Errorf("bad header: %q", out[:12])
	}
	if len(out) != 11+12 {
		t.Errorf("length = %d, want %d", len(out), 23)
	}
	if err := EncodePPM(&buf, img, 3, 3); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRenderFrameMatchesRowRendering(t *testing.T) {
	scene := BuildScene(2, 10, 3)
	cam := NewCamera(V3{0, 3, 8}, V3{0, 0.8, -6}, 55, 16, 12)
	whole := RenderFrame(scene, cam)
	row := make([]uint8, 3*16)
	scene.RenderRow(cam, 5, row)
	for i := range row {
		if whole[5*3*16+i] != row[i] {
			t.Fatal("RenderFrame differs from row-by-row rendering")
		}
	}
}

func TestBVHEmptyAndPlaneOnlyScene(t *testing.T) {
	// A scene with only unbounded shapes yields an empty BVH; rays still
	// hit the plane through the separate plane list.
	s := &Scene{
		Ambient:   V3{0.1, 0.1, 0.1},
		Materials: []Material{{Color: V3{1, 1, 1}}},
		Lights:    []Light{{Pos: V3{0, 5, 0}, Color: V3{1, 1, 1}}},
	}
	s.Shapes = append(s.Shapes, Plane(V3{0, 0, 0}, V3{0, 1, 0}, 0))
	s.Planes = []int32{0}
	s.BVH = BuildBVH(s.Shapes)
	if _, _, ok := s.BVH.Intersect(s.Shapes, Ray{O: V3{0, 1, 0}, D: V3{0, -1, 0}}, 1e18); ok {
		t.Error("empty BVH reported a hit")
	}
	if s.BVH.Any(s.Shapes, Ray{O: V3{0, 1, 0}, D: V3{0, -1, 0}}, 1e18) {
		t.Error("empty BVH reported an occluder")
	}
	col := s.Trace(Ray{O: V3{0, 1, 0}, D: V3{0, -1, 0}.Unit()}, 0)
	if col.Norm() == 0 {
		t.Error("plane-only scene rendered black")
	}
	// Missing everything returns the background.
	bg := s.Trace(Ray{O: V3{0, 1, 0}, D: V3{0, 1, 0}}, 0)
	if bg != s.Bg {
		t.Errorf("sky color = %v, want background %v", bg, s.Bg)
	}
}

// frameDigest is the FNV-64a digest of a whole single-threaded frame of
// scene seen from the perfbench raytrace camera.
func frameDigest(scene *Scene, w, h int) uint64 {
	cam := NewCamera(V3{0, 3.5, 8}, V3{0, 0.8, -6}, 55, w, h)
	f := fnv.New64a()
	f.Write(RenderFrame(scene, cam))
	return f.Sum64()
}

// TestRenderGolden pins the rendered pixels bitwise. A kernel change that
// draws different pixels (a reordered floating-point sum, a different
// tie-break between equal hits) fails here even though every renderer in
// the repo agrees with itself.
func TestRenderGolden(t *testing.T) {
	for _, c := range []struct {
		seed               int64
		spheres, triangles int
		w, h               int
		want               uint64
	}{
		{2012, 800, 400, 96, 96, 0x8bc5dbd611679dfd},
		{99, 40, 12, 64, 48, 0x74e973c844a5559e},
	} {
		if got := frameDigest(BuildScene(c.seed, c.spheres, c.triangles), c.w, c.h); got != c.want {
			t.Errorf("BuildScene(%d, %d, %d) at %dx%d: digest %016x, want %016x",
				c.seed, c.spheres, c.triangles, c.w, c.h, got, c.want)
		}
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	frameSink []uint8
	bvhSink   *BVH
)

// BenchmarkRenderFrame renders the 96x96 golden frame of the perfbench
// raytrace scene single-threaded: the kernel rung under kernel.render_ms.
func BenchmarkRenderFrame(b *testing.B) {
	scene := BuildScene(2012, 800, 400)
	cam := NewCamera(V3{0, 3.5, 8}, V3{0, 0.8, -6}, 55, 96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameSink = RenderFrame(scene, cam)
	}
}

// BenchmarkBuildBVH builds the BVH over the perfbench raytrace scene, the
// part of the scene set-up that runs inside Single.
func BenchmarkBuildBVH(b *testing.B) {
	shapes := BuildScene(2012, 800, 400).Shapes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bvhSink = BuildBVH(shapes)
	}
}
