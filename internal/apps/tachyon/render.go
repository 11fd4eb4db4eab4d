package tachyon

import (
	"math"
	"math/rand"
)

// Light is a point light.
type Light struct {
	Pos   V3
	Color V3
}

// Scene is the shareable rendering state: geometry, materials, lights,
// acceleration structure. The paper splits Tachyon's original structure so
// that this part (read-only during rendering) can be HLS while
// communication buffers and the MPI rank stay task-private.
type Scene struct {
	Shapes    []Shape
	Planes    []int32 // indices of unbounded shapes, tested outside the BVH
	Materials []Material
	Lights    []Light
	BVH       *BVH
	Ambient   V3
	Bg        V3
}

// BuildScene generates a deterministic procedural scene: a checkered
// ground plane, a pile of reflective and diffuse spheres, and triangle
// fins — enough to exercise shadows, reflections and textures.
func BuildScene(seed int64, spheres, triangles int) *Scene {
	rng := rand.New(rand.NewSource(seed))
	s := &Scene{
		Ambient: V3{0.08, 0.08, 0.1},
		Bg:      V3{0.05, 0.06, 0.1},
	}
	// Materials: ground + a palette.
	s.Materials = append(s.Materials, Material{Color: V3{0.9, 0.9, 0.9}, Checker: true, Specular: 0.1, Shininess: 16})
	for i := 0; i < 8; i++ {
		s.Materials = append(s.Materials, Material{
			Color:     V3{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()},
			Specular:  0.4,
			Shininess: 32,
			Reflect:   0.5 * float64(i%3) / 2,
		})
	}
	s.Shapes = append(s.Shapes, Plane(V3{0, 0, 0}, V3{0, 1, 0}, 0))
	for i := 0; i < spheres; i++ {
		r := 0.2 + 0.4*rng.Float64()
		s.Shapes = append(s.Shapes, Sphere(V3{
			-6 + 12*rng.Float64(),
			r,
			-2 - 10*rng.Float64(),
		}, r, int32(1+rng.Intn(8))))
	}
	for i := 0; i < triangles; i++ {
		base := V3{-6 + 12*rng.Float64(), 0, -2 - 10*rng.Float64()}
		a := base
		b := base.Add(V3{0.6*rng.Float64() + 0.2, 0, 0.4 * rng.Float64()})
		c := base.Add(V3{0.3 * rng.Float64(), 0.8*rng.Float64() + 0.3, 0.1 * rng.Float64()})
		s.Shapes = append(s.Shapes, Triangle(a, b, c, int32(1+rng.Intn(8))))
	}
	s.Lights = append(s.Lights,
		Light{Pos: V3{-4, 6, 2}, Color: V3{0.9, 0.85, 0.8}},
		Light{Pos: V3{5, 8, -1}, Color: V3{0.4, 0.45, 0.55}},
	)
	for i, sh := range s.Shapes {
		if sh.Kind == kindPlane {
			s.Planes = append(s.Planes, int32(i))
		}
	}
	s.BVH = BuildBVH(s.Shapes)
	return s
}

// SceneBytes estimates the scene's in-memory footprint (for accounting
// sanity checks; the paper-scale figure is configured separately).
func (s *Scene) SceneBytes() int64 {
	return int64(len(s.Shapes))*int64(96) + int64(len(s.Materials))*64 + int64(len(s.Lights))*48
}

// nearestHit finds the closest intersection of r with the scene.
func (s *Scene) nearestHit(r Ray) (t float64, idx int32, ok bool) {
	best := math.Inf(1)
	bestIdx := int32(-1)
	if nt, ni, hit := s.BVH.Intersect(s.Shapes, r, best); hit {
		best, bestIdx = nt, ni
	}
	for _, pi := range s.Planes {
		if pt, hit := s.Shapes[pi].Intersect(r); hit && pt < best {
			best, bestIdx = pt, pi
		}
	}
	return best, bestIdx, bestIdx >= 0
}

// occluded reports whether anything blocks the segment from p towards the
// light at distance dist. Any hit short of the light will do, so the
// query stops at the first one instead of finding the nearest.
func (s *Scene) occluded(p, dir V3, dist float64) bool {
	r := Ray{O: p.Add(dir.Scale(1e-6)), D: dir}
	tMax := dist - 1e-6
	for _, pi := range s.Planes {
		if t, ok := s.Shapes[pi].Intersect(r); ok && t < tMax {
			return true
		}
	}
	return s.BVH.Any(s.Shapes, r, tMax)
}

// maxDepth bounds reflection recursion.
const maxDepth = 3

// Trace returns the color of ray r.
func (s *Scene) Trace(r Ray, depth int) V3 {
	t, idx, ok := s.nearestHit(r)
	if !ok {
		return s.Bg
	}
	sh := &s.Shapes[idx]
	p := r.At(t)
	n := sh.NormalAt(p)
	if n.Dot(r.D) > 0 {
		n = n.Scale(-1)
	}
	mat := &s.Materials[sh.Mat]
	albedo := mat.Color
	if mat.Checker {
		// Procedural checkerboard in x/z.
		cx := int(math.Floor(p.X))
		cz := int(math.Floor(p.Z))
		if (cx+cz)&1 == 0 {
			albedo = albedo.Scale(0.35)
		}
	}
	col := s.Ambient.Mul(albedo)
	for _, l := range s.Lights {
		toL := l.Pos.Sub(p)
		dist := toL.Norm()
		dir := toL.Scale(1 / dist)
		if s.occluded(p, dir, dist) {
			continue
		}
		diff := math.Max(0, n.Dot(dir))
		col = col.Add(l.Color.Mul(albedo).Scale(diff))
		if mat.Specular > 0 {
			h := dir.Sub(r.D).Unit()
			spec := math.Pow(math.Max(0, n.Dot(h)), mat.Shininess)
			col = col.Add(l.Color.Scale(mat.Specular * spec))
		}
	}
	if mat.Reflect > 0 && depth < maxDepth {
		rd := r.D.Sub(n.Scale(2 * r.D.Dot(n))).Unit()
		rc := s.Trace(Ray{O: p.Add(rd.Scale(1e-6)), D: rd}, depth+1)
		col = col.Add(rc.Scale(mat.Reflect))
	}
	return col
}

// Camera generates primary rays.
type Camera struct {
	Pos, fwd, right, up V3
	tanHalf             float64
	W, H                int
}

// NewCamera builds a camera at pos looking at target with the given
// vertical field of view (degrees) and image size.
func NewCamera(pos, target V3, fovDeg float64, w, h int) *Camera {
	fwd := target.Sub(pos).Unit()
	right := fwd.Cross(V3{0, 1, 0}).Unit()
	up := right.Cross(fwd)
	return &Camera{
		Pos: pos, fwd: fwd, right: right, up: up,
		tanHalf: math.Tan(fovDeg * math.Pi / 360),
		W:       w, H: h,
	}
}

// RayAt returns the primary ray through pixel (x, y).
func (c *Camera) RayAt(x, y int) Ray {
	aspect := float64(c.W) / float64(c.H)
	px := (2*(float64(x)+0.5)/float64(c.W) - 1) * c.tanHalf * aspect
	py := (1 - 2*(float64(y)+0.5)/float64(c.H)) * c.tanHalf
	d := c.fwd.Add(c.right.Scale(px)).Add(c.up.Scale(py)).Unit()
	return Ray{O: c.Pos, D: d}
}

// RenderRow renders scanline y into dst (3 bytes per pixel, RGB).
func (s *Scene) RenderRow(c *Camera, y int, dst []uint8) {
	for x := 0; x < c.W; x++ {
		col := s.Trace(c.RayAt(x, y), 0)
		dst[3*x] = toByte(col.X)
		dst[3*x+1] = toByte(col.Y)
		dst[3*x+2] = toByte(col.Z)
	}
}

func toByte(v float64) uint8 {
	v = math.Sqrt(math.Max(0, math.Min(1, v))) // gamma 2.0
	return uint8(v*255 + 0.5)
}
