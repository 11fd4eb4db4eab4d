// Package tachyon is the Table IV application: a parallel ray tracer
// patterned after Tachyon (SPEC MPI2007). Work is decomposed by giving an
// identical number of scanlines to each MPI task; the scene is replicated
// across tasks ("it is hard to predict what part of the scene a ray will
// access") and the full image is kept per task for code simplicity, with
// rank 0 assembling the final frame.
//
// Both structures are HLS candidates: the scene is read-only during
// rendering, and the image sub-parts written by different tasks do not
// overlap. Sharing the image additionally removes rank-0's intra-node
// receive copies, because the runtime skips the memcpy when source and
// destination are the same address — the effect that made the paper's
// Tachyon run *faster* with HLS.
package tachyon

import "math"

// V3 is a 3-vector / RGB color.
type V3 struct{ X, Y, Z float64 }

// Add returns v + o.
func (v V3) Add(o V3) V3 { return V3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v V3) Sub(o V3) V3 { return V3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v * s.
func (v V3) Scale(s float64) V3 { return V3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the componentwise product.
func (v V3) Mul(o V3) V3 { return V3{v.X * o.X, v.Y * o.Y, v.Z * o.Z} }

// Dot returns v · o.
func (v V3) Dot(o V3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns v × o.
func (v V3) Cross(o V3) V3 {
	return V3{v.Y*o.Z - v.Z*o.Y, v.Z*o.X - v.X*o.Z, v.X*o.Y - v.Y*o.X}
}

// Norm returns |v|.
func (v V3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized (zero vector unchanged).
func (v V3) Unit() V3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Ray is an origin and unit direction.
type Ray struct{ O, D V3 }

// At returns the point at parameter t.
func (r Ray) At(t float64) V3 { return r.O.Add(r.D.Scale(t)) }

// Material describes surface response.
type Material struct {
	Color     V3      // diffuse albedo
	Specular  float64 // specular coefficient
	Shininess float64 // Phong exponent
	Reflect   float64 // mirror reflectivity [0,1]
	Checker   bool    // procedural checkerboard texture
}

// shape kinds
const (
	kindSphere = iota
	kindTriangle
	kindPlane
)

// Shape is a tagged union of the supported primitives, flat for cache-
// and BVH-friendliness.
type Shape struct {
	Kind int
	// Sphere: A = center, R = radius.
	// Triangle: A, B, C = vertices.
	// Plane: A = point, B = unit normal.
	A, B, C V3
	R       float64
	Mat     int32 // material index
}

// Sphere builds a sphere shape.
func Sphere(center V3, r float64, mat int32) Shape {
	return Shape{Kind: kindSphere, A: center, R: r, Mat: mat}
}

// Triangle builds a triangle shape.
func Triangle(a, b, c V3, mat int32) Shape {
	return Shape{Kind: kindTriangle, A: a, B: b, C: c, Mat: mat}
}

// Plane builds an infinite plane through p with normal n.
func Plane(p, n V3, mat int32) Shape {
	return Shape{Kind: kindPlane, A: p, B: n.Unit(), Mat: mat}
}

const tEps = 1e-9

// Intersect returns the nearest positive hit parameter, or ok=false.
func (s *Shape) Intersect(r Ray) (float64, bool) {
	switch s.Kind {
	case kindSphere:
		oc := r.O.Sub(s.A)
		b := oc.Dot(r.D)
		c := oc.Dot(oc) - s.R*s.R
		disc := b*b - c
		if disc < 0 {
			return 0, false
		}
		sq := math.Sqrt(disc)
		if t := -b - sq; t > tEps {
			return t, true
		}
		if t := -b + sq; t > tEps {
			return t, true
		}
		return 0, false
	case kindTriangle:
		// Möller–Trumbore.
		e1 := s.B.Sub(s.A)
		e2 := s.C.Sub(s.A)
		p := r.D.Cross(e2)
		det := e1.Dot(p)
		if math.Abs(det) < tEps {
			return 0, false
		}
		inv := 1 / det
		tv := r.O.Sub(s.A)
		u := tv.Dot(p) * inv
		if u < 0 || u > 1 {
			return 0, false
		}
		q := tv.Cross(e1)
		v := r.D.Dot(q) * inv
		if v < 0 || u+v > 1 {
			return 0, false
		}
		t := e2.Dot(q) * inv
		if t > tEps {
			return t, true
		}
		return 0, false
	case kindPlane:
		denom := s.B.Dot(r.D)
		if math.Abs(denom) < tEps {
			return 0, false
		}
		t := s.A.Sub(r.O).Dot(s.B) / denom
		if t > tEps {
			return t, true
		}
		return 0, false
	}
	return 0, false
}

// NormalAt returns the outward surface normal at point p.
func (s *Shape) NormalAt(p V3) V3 {
	switch s.Kind {
	case kindSphere:
		return p.Sub(s.A).Unit()
	case kindTriangle:
		return s.B.Sub(s.A).Cross(s.C.Sub(s.A)).Unit()
	default:
		return s.B
	}
}

// aabb is an axis-aligned bounding box: [0] is the low corner, [1] the
// high one.
type aabb [2]V3

func (s *Shape) bounds() aabb {
	switch s.Kind {
	case kindSphere:
		r := V3{s.R, s.R, s.R}
		return aabb{s.A.Sub(r), s.A.Add(r)}
	case kindTriangle:
		lo := V3{min(s.A.X, s.B.X, s.C.X), min(s.A.Y, s.B.Y, s.C.Y), min(s.A.Z, s.B.Z, s.C.Z)}
		hi := V3{max(s.A.X, s.B.X, s.C.X), max(s.A.Y, s.B.Y, s.C.Y), max(s.A.Z, s.B.Z, s.C.Z)}
		return aabb{lo, hi}
	default:
		inf := math.Inf(1)
		return aabb{V3{-inf, -inf, -inf}, V3{inf, inf, inf}}
	}
}

func (b aabb) union(o aabb) aabb {
	return aabb{
		V3{min(b[0].X, o[0].X), min(b[0].Y, o[0].Y), min(b[0].Z, o[0].Z)},
		V3{max(b[1].X, o[1].X), max(b[1].Y, o[1].Y), max(b[1].Z, o[1].Z)},
	}
}

// axis returns component i (0 = X, 1 = Y, 2 = Z).
func (v V3) axis(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// flatDir is the direction component below which a ray counts as
// parallel to an axis: its reciprocal is not used, and a box is entered
// on that axis only if the origin lies within the slab.
const flatDir = 1e-30

// rayQuery is a ray prepared for box tests. The reciprocal of its
// direction is computed once per query, not three divisions per box, and
// the sign of each component picks the box corner the ray enters by
// (near) and leaves by (1-near), so no per-box swap is needed.
type rayQuery struct {
	o, inv     V3
	nx, ny, nz uint8 // near corner per axis: 1 where the direction is negative
	flat       uint8 // bit i set where |d_i| < flatDir; boxes then take hitsFlat
}

func newRayQuery(r Ray) rayQuery {
	q := rayQuery{o: r.O, inv: V3{1 / r.D.X, 1 / r.D.Y, 1 / r.D.Z}}
	q.nx, q.ny, q.nz = signBit(q.inv.X), signBit(q.inv.Y), signBit(q.inv.Z)
	for i := 0; i < 3; i++ {
		if math.Abs(r.D.axis(i)) < flatDir {
			q.flat |= 1 << i
		}
	}
	return q
}

func signBit(v float64) uint8 {
	if v < 0 {
		return 1
	}
	return 0
}

// hits performs the slab test of box b against the ray over [tEps, tMax].
// Rounding is monotone, so the near-corner distance on each axis is
// exactly the smaller of the two slab distances.
func (q *rayQuery) hits(b *aabb, tMax float64) bool {
	if q.flat != 0 {
		return q.hitsFlat(b, tMax)
	}
	tMin := max(tEps,
		(b[q.nx&1].X-q.o.X)*q.inv.X,
		(b[q.ny&1].Y-q.o.Y)*q.inv.Y,
		(b[q.nz&1].Z-q.o.Z)*q.inv.Z)
	tMax = min(tMax,
		(b[1-(q.nx&1)].X-q.o.X)*q.inv.X,
		(b[1-(q.ny&1)].Y-q.o.Y)*q.inv.Y,
		(b[1-(q.nz&1)].Z-q.o.Z)*q.inv.Z)
	return tMin <= tMax
}

// hitsFlat is hits for a ray with a flat axis: that axis is a
// containment test on the origin instead of a slab.
func (q *rayQuery) hitsFlat(b *aabb, tMax float64) bool {
	tMin := tEps
	for i := 0; i < 3; i++ {
		o, lo, hi := q.o.axis(i), b[0].axis(i), b[1].axis(i)
		if q.flat&(1<<i) != 0 {
			if o < lo || o > hi {
				return false
			}
			continue
		}
		t0, t1 := (lo-o)*q.inv.axis(i), (hi-o)*q.inv.axis(i)
		tMin = max(tMin, min(t0, t1))
		tMax = min(tMax, max(t0, t1))
	}
	return tMin <= tMax
}

// BVH is a binary bounding-volume hierarchy over the bounded shapes
// (planes are tested separately).
type BVH struct {
	nodes []bvhNode
	order []int32 // shape indices, leaves reference ranges of this
}

type bvhNode struct {
	box         aabb
	left, right int32 // child node indices; -1 for leaf
	start, n    int32 // leaf range in order
}

// BuildBVH constructs a BVH over the given shapes (ignoring planes).
func BuildBVH(shapes []Shape) *BVH {
	b := &BVH{}
	boxes := make([]aabb, len(shapes))
	cents := make([]V3, len(shapes))
	for i := range shapes {
		if shapes[i].Kind == kindPlane {
			continue
		}
		b.order = append(b.order, int32(i))
		boxes[i] = shapes[i].bounds()
		cents[i] = boxes[i][0].Add(boxes[i][1]).Scale(0.5)
	}
	if len(b.order) == 0 {
		return b
	}
	b.build(boxes, cents, 0, len(b.order))
	return b
}

// build recursively partitions order[start:end) and returns the node id.
// boxes and cents hold each shape's bounds and centroid, by shape index.
func (b *BVH) build(boxes []aabb, cents []V3, start, end int) int32 {
	box := boxes[b.order[start]]
	for i := start + 1; i < end; i++ {
		box = box.union(boxes[b.order[i]])
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, bvhNode{box: box, left: -1, right: -1})
	if end-start <= 4 {
		b.nodes[id].start = int32(start)
		b.nodes[id].n = int32(end - start)
		return id
	}
	// Median split along the widest axis.
	ext := box[1].Sub(box[0])
	axis := 0
	if ext.Y > ext.X && ext.Y >= ext.Z {
		axis = 1
	} else if ext.Z > ext.X && ext.Z > ext.Y {
		axis = 2
	}
	mid := (start + end) / 2
	quickSelect(b.order[start:end], mid-start, func(i, j int32) bool {
		return cents[i].axis(axis) < cents[j].axis(axis)
	})
	left := b.build(boxes, cents, start, mid)
	right := b.build(boxes, cents, mid, end)
	b.nodes[id].left = left
	b.nodes[id].right = right
	return id
}

// quickSelect partially sorts a so that a[k] is the k-th element by less.
func quickSelect(a []int32, k int, less func(i, j int32) bool) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for less(a[i], p) {
				i++
			}
			for less(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Intersect returns the nearest hit among the BVH shapes, updating
// (bestT, bestIdx). It returns ok=false if nothing beats bestT.
func (b *BVH) Intersect(shapes []Shape, r Ray, bestT float64) (float64, int32, bool) {
	t, idx := b.walk(shapes, r, bestT, false)
	return t, idx, idx >= 0
}

// Any reports whether some BVH shape is hit at tEps < t < tMax. It
// returns at the first such shape, not the nearest: the shadow-ray query.
func (b *BVH) Any(shapes []Shape, r Ray, tMax float64) bool {
	_, idx := b.walk(shapes, r, tMax, true)
	return idx >= 0
}

// walk traverses the tree for hits below bestT, pruning boxes against the
// best t so far. With first set it stops at the first hit found.
func (b *BVH) walk(shapes []Shape, r Ray, bestT float64, first bool) (float64, int32) {
	bestIdx := int32(-1)
	if len(b.nodes) == 0 {
		return bestT, bestIdx
	}
	q := newRayQuery(r)
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		nd := &b.nodes[stack[sp]]
		if !q.hits(&nd.box, bestT) {
			continue
		}
		if nd.left < 0 {
			for i := nd.start; i < nd.start+nd.n; i++ {
				idx := b.order[i]
				if t, ok := shapes[idx].Intersect(r); ok && t < bestT {
					bestT = t
					bestIdx = idx
					if first {
						return bestT, bestIdx
					}
				}
			}
			continue
		}
		stack[sp] = nd.left
		sp++
		stack[sp] = nd.right
		sp++
	}
	return bestT, bestIdx
}
