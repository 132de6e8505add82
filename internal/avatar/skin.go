package avatar

// Skinned decode: the surface is extracted once per identity, in the rest
// pose, and every frame poses it by linear blend skinning — O(V) work per
// frame instead of an O(R²)-band lattice extraction, for a mesh whose
// topology never changes between frames. This is how X-Avatar, the system
// the paper's §4 measures, defines its surface: in a canonical space,
// posed by skinning.

import (
	"semholo/internal/body"
	"semholo/internal/geom"
	"semholo/internal/mesh"
	"semholo/internal/par"
)

// canonicalSurface is a Reconstructor's rest-pose surface bound to the
// skeleton: the cold extraction at &body.Params{}, its faces (shared by
// every mesh skinned from it) and each vertex's bone influences.
type canonicalSurface struct {
	model   *body.Model
	res     int
	k       float64
	rest    []geom.Vec3
	faces   []mesh.Face
	weights [][]body.Influence
}

// Skin returns the mesh for p posed from r's canonical surface: the
// rest-pose surface Reconstruct extracts at &body.Params{}, bound to the
// skeleton with the model's proximity weights (body.Model.BindWeights)
// and skinned with p's joint transforms — the same linear blend skinning
// body.Model.Mesh applies to the template. The first call, and the first
// after Model, Resolution or SmoothK changes, runs that extraction; every
// other call costs one pass over the vertices. Output is identical at any
// Workers setting. Dense does not apply (the canonical pass is a
// narrow-band extraction).
//
// The returned mesh shares its Faces with the canonical surface, and with
// Cache set the whole mesh is shared with every other caller of that pose
// (skinned and extracted meshes are keyed apart): treat it as read-only
// and Clone() before mutating. Each skinned frame counts as one frame
// with no evaluated samples in Counters.
func (r *Reconstructor) Skin(p *body.Params) *mesh.Mesh {
	if r.Cache != nil {
		return r.Cache.getOrCompute(p, r, true)
	}
	return r.skin(p)
}

func (r *Reconstructor) skin(p *body.Params) *mesh.Mesh {
	if r.Model == nil || r.Resolution <= 0 {
		return &mesh.Mesh{}
	}
	c := r.canonical()
	out := &mesh.Mesh{Vertices: make([]geom.Vec3, len(c.rest)), Faces: c.faces}
	r.Model.SkinMatrices(p, &r.skinMats)
	// One worker skins inline: par.ForChunks would allocate its split and
	// closure every frame (TestSkinAllocs pins two allocations).
	if par.Resolve(r.Workers) == 1 {
		body.Skin(out.Vertices, c.rest, c.weights, &r.skinMats)
	} else {
		par.ForChunks(r.Workers, len(c.rest), func(_, lo, hi int) {
			body.Skin(out.Vertices[lo:hi], c.rest[lo:hi], c.weights[lo:hi], &r.skinMats)
		})
	}
	r.Counters.AddFrame(0)
	return out
}

// canonical returns r's canonical surface, running the canonical pass
// when none exists yet for the current Model, Resolution and SmoothK. The
// pass is a fresh reconstructor's extraction, so it does not count as a
// decoded frame.
func (r *Reconstructor) canonical() *canonicalSurface {
	c := &r.canon
	if c.model == r.Model && c.res == r.Resolution && c.k == r.smoothK() {
		return c
	}
	cold := &Reconstructor{Model: r.Model, Resolution: r.Resolution, SmoothK: r.SmoothK, Workers: r.Workers}
	m := cold.reconstruct(&body.Params{})
	*c = canonicalSurface{
		model:   r.Model,
		res:     r.Resolution,
		k:       r.smoothK(),
		rest:    m.Vertices,
		faces:   m.Faces[:len(m.Faces):len(m.Faces)],
		weights: r.Model.BindWeights(m.Vertices),
	}
	return c
}
