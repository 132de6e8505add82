package textsem

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"semholo/internal/geom"
	"semholo/internal/pointcloud"
)

// Generator reconstructs a point cloud from a Document — the receiver's
// text-to-3D stage. Points are drawn deterministically (Halton sequence)
// from the per-cell moments the captions describe, so reconstruction is
// reproducible and the quality floor is set by caption precision and
// cell granularity, not sampling luck.
type Generator struct {
	// PointBudget caps the points generated per frame (default 20000,
	// scaled across cells proportionally to their described counts).
	PointBudget int
}

type cellDesc struct {
	id    CellID
	count int
	mu    geom.Vec3
	sd    geom.Vec3
	col   pointcloud.Color
}

type globalDesc struct {
	centroid geom.Vec3
	cellSize float64 // >0 in absolute-grid mode
	count    int
}

func parseFloats(fields []string, idx int, n int) ([]float64, error) {
	if idx+n > len(fields) {
		return nil, fmt.Errorf("textsem: caption too short")
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v, err := strconv.ParseFloat(fields[idx+i], 64)
		if err != nil {
			return nil, fmt.Errorf("textsem: bad number %q", fields[idx+i])
		}
		out[i] = v
	}
	return out, nil
}

func parseGlobal(caption string) (globalDesc, error) {
	var g globalDesc
	// "...; centroid X Y Z; N points"
	parts := strings.Split(caption, ";")
	for _, part := range parts {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "centroid":
			vals, err := parseFloats(fields, 1, 3)
			if err != nil {
				return g, err
			}
			g.centroid = geom.V3(vals[0], vals[1], vals[2])
		case "cell":
			vals, err := parseFloats(fields, 1, 1)
			if err != nil {
				return g, err
			}
			g.cellSize = vals[0]
		default:
			if len(fields) == 2 && fields[1] == "points" {
				n, err := strconv.Atoi(fields[0])
				if err != nil {
					return g, fmt.Errorf("textsem: bad point count %q", fields[0])
				}
				g.count = n
			}
		}
	}
	return g, nil
}

func parseCell(caption string) (cellDesc, error) {
	var c cellDesc
	fields := strings.Fields(caption)
	// region X Y Z holds N points near mx my mz spread sx sy sz colored r g b
	if len(fields) < 18 || fields[0] != "region" {
		return c, fmt.Errorf("textsem: malformed cell caption %q", caption)
	}
	var xyz [3]int
	for i := range xyz {
		v, err := strconv.Atoi(fields[1+i])
		if err != nil {
			return c, fmt.Errorf("textsem: bad cell coordinate %q", fields[1+i])
		}
		xyz[i] = v
	}
	id, err := newCellID(xyz[0], xyz[1], xyz[2])
	if err != nil {
		return c, err
	}
	c.id = id
	n, err := strconv.Atoi(fields[5])
	if err != nil || n < 0 || fields[4] != "holds" || fields[6] != "points" {
		return c, fmt.Errorf("textsem: malformed count in %q", caption)
	}
	c.count = n
	mu, err := parseFloats(fields, 8, 3)
	if err != nil {
		return c, err
	}
	c.mu = geom.V3(mu[0], mu[1], mu[2])
	sd, err := parseFloats(fields, 12, 3)
	if err != nil {
		return c, err
	}
	c.sd = geom.V3(sd[0], sd[1], sd[2])
	col, err := parseFloats(fields, 16, 3)
	if err != nil {
		return c, err
	}
	c.col = pointcloud.Color{R: col[0], G: col[1], B: col[2]}
	return c, nil
}

func halton(i, base int) float64 {
	f, r := 1.0, 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// inverse of the standard normal CDF via Acklam's approximation — turns
// Halton uniforms into Gaussian offsets.
func invNorm(p float64) float64 {
	if p <= 0 {
		return -6
	}
	if p >= 1 {
		return 6
	}
	// Coefficients for the central region suffice at our precisions.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := sqrtNeg2Log(p)
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := sqrtNeg2Log(1 - p)
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

func sqrtNeg2Log(p float64) float64 {
	return math.Sqrt(-2 * math.Log(p))
}

// Generate reconstructs a point cloud from the document.
func (g Generator) Generate(doc Document) (*pointcloud.Cloud, error) {
	budget := g.PointBudget
	if budget <= 0 {
		budget = 20000
	}
	gd, err := parseGlobal(doc.Global)
	if err != nil {
		return nil, err
	}
	var cells []cellDesc
	total := 0
	for _, id := range doc.sortedCellIDs() {
		cd, err := parseCell(doc.Cells[id])
		if err != nil {
			return nil, err
		}
		if cd.count > math.MaxInt-total {
			return nil, fmt.Errorf("textsem: cell counts overflow")
		}
		cells = append(cells, cd)
		total += cd.count
	}
	out := pointcloud.New(0)
	out.Colors = []pointcloud.Color{}
	if total == 0 {
		return out, nil
	}
	scale := 1.0
	if total > budget {
		scale = float64(budget) / float64(total)
	}
	seq := 1
	for _, cd := range cells {
		n := int(float64(cd.count)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		ref := gd.centroid
		if gd.cellSize > 0 {
			ref = geom.V3(
				(float64(cd.id.X)+0.5)*gd.cellSize,
				(float64(cd.id.Y)+0.5)*gd.cellSize,
				(float64(cd.id.Z)+0.5)*gd.cellSize,
			)
		}
		for i := 0; i < n; i++ {
			off := geom.V3(
				invNorm(halton(seq, 2))*cd.sd.X,
				invNorm(halton(seq, 3))*cd.sd.Y,
				invNorm(halton(seq, 5))*cd.sd.Z,
			)
			seq++
			p := ref.Add(cd.mu).Add(off)
			out.Points = append(out.Points, p)
			out.Colors = append(out.Colors, cd.col)
		}
	}
	return out, nil
}
