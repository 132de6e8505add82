// Package textsem implements text-based semantics (§2.3, §3.3): the
// sender converts volumetric content into compact textual descriptions
// (the stand-in for 3D dense captioning models such as Scan2Cap), and the
// receiver regenerates a point cloud from the text (the stand-in for
// text-to-3D generators such as Point-E). The package realizes the
// paper's §3.3 agenda mechanically:
//
//   - Cell partitioning with one text channel per cell, so each channel
//     can be reconstructed at its own quality level.
//   - Two-step global/local encoding: a global channel carries overall
//     body statistics first; local cell channels encode positions
//     relative to it, preserving global pose coherence.
//   - Inter-frame delta encoding: unchanged cells are not re-sent.
//
// The "text" is deterministic structured prose (a caption grammar), so
// extraction and reconstruction are exact inverses up to the described
// moments — giving the medium visual quality and low data size that
// Table 1 assigns to text semantics.
package textsem

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"semholo/internal/geom"
	"semholo/internal/pointcloud"
)

// CellID addresses one partition cell of the body volume.
type CellID struct{ X, Y, Z int8 }

// Document is one frame's textual description: the global channel plus
// one channel per occupied cell.
type Document struct {
	// Global describes whole-body statistics; it must be decoded before
	// any cell (two-step encoding, §3.3).
	Global string
	// Cells maps cell addresses to their captions.
	Cells map[CellID]string
}

// Captioner converts point clouds to Documents.
type Captioner struct {
	// CellsPerAxis partitions the body bounding box (default 6). Ignored
	// when CellSize is set.
	CellsPerAxis int
	// CellSize, when positive, anchors cells to an absolute world grid
	// of this pitch instead of the per-frame bounding box. Absolute
	// anchoring keeps cell identities stable across frames, which is
	// what makes inter-frame deltas (§3.3) collapse for static regions.
	CellSize float64
	// Precision is the number of decimals kept in captions (default 3);
	// fewer decimals = smaller text = coarser reconstruction, and also
	// stronger immunity of deltas to sensor noise.
	Precision int
}

func (c Captioner) cells() int {
	if c.CellsPerAxis <= 0 {
		return 6
	}
	return c.CellsPerAxis
}

func (c Captioner) precision() int {
	if c.Precision <= 0 {
		return 3
	}
	return c.Precision
}

func fnum(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// globalStats captures the whole-body reference frame.
type globalStats struct {
	centroid geom.Vec3
	size     geom.Vec3
	origin   geom.Vec3 // bounds min: the cell-grid anchor
	count    int
}

// Caption describes the cloud as a Document. An empty cloud produces an
// empty document.
func (c Captioner) Caption(cloud *pointcloud.Cloud) Document {
	doc := Document{Cells: map[CellID]string{}}
	if cloud.Len() == 0 {
		doc.Global = "an empty scene"
		return doc
	}
	prec := c.precision()
	b := cloud.Bounds()
	gs := globalStats{
		centroid: cloud.Centroid(),
		size:     b.Size(),
		origin:   b.Min,
		count:    cloud.Len(),
	}
	posture := describePosture(gs)
	if c.CellSize > 0 {
		// Absolute-grid mode: cells carry their own reference frame, so
		// the global channel only needs the grid pitch and the gross
		// statistics (quantized, so it stays stable between frames).
		doc.Global = fmt.Sprintf(
			"%s; cell %s; extent %s %s %s; %d points",
			posture,
			fnum(c.CellSize, 4),
			fnum(gs.size.X, 1), fnum(gs.size.Y, 1), fnum(gs.size.Z, 1),
			quantizeCount(gs.count),
		)
	} else {
		doc.Global = fmt.Sprintf(
			"%s; origin at %s %s %s; extent %s %s %s; centroid %s %s %s; %d points",
			posture,
			fnum(gs.origin.X, prec), fnum(gs.origin.Y, prec), fnum(gs.origin.Z, prec),
			fnum(gs.size.X, prec), fnum(gs.size.Y, prec), fnum(gs.size.Z, prec),
			fnum(gs.centroid.X, prec), fnum(gs.centroid.Y, prec), fnum(gs.centroid.Z, prec),
			gs.count,
		)
	}

	n := c.cells()
	var cellSize geom.Vec3
	var gridOrigin geom.Vec3
	if c.CellSize > 0 {
		cellSize = geom.V3(c.CellSize, c.CellSize, c.CellSize)
		gridOrigin = geom.Vec3{} // absolute world grid
	} else {
		cellSize = geom.V3(
			math.Max(gs.size.X/float64(n), 1e-9),
			math.Max(gs.size.Y/float64(n), 1e-9),
			math.Max(gs.size.Z/float64(n), 1e-9),
		)
		gridOrigin = gs.origin
	}
	type acc struct {
		sum   geom.Vec3
		sq    geom.Vec3
		col   pointcloud.Color
		count int
	}
	cells := map[CellID]*acc{}
	for i, p := range cloud.Points {
		d := p.Sub(gridOrigin)
		var id CellID
		if c.CellSize > 0 {
			id = CellID{
				X: int8(geom.Clamp(math.Floor(d.X/cellSize.X), -127, 127)),
				Y: int8(geom.Clamp(math.Floor(d.Y/cellSize.Y), -127, 127)),
				Z: int8(geom.Clamp(math.Floor(d.Z/cellSize.Z), -127, 127)),
			}
		} else {
			id = CellID{
				X: int8(math.Min(float64(n-1), d.X/cellSize.X)),
				Y: int8(math.Min(float64(n-1), d.Y/cellSize.Y)),
				Z: int8(math.Min(float64(n-1), d.Z/cellSize.Z)),
			}
		}
		a := cells[id]
		if a == nil {
			a = &acc{}
			cells[id] = a
		}
		// Local coordinates relative to the global reference (two-step
		// encoding, §3.3): the cell's grid center in absolute mode, the
		// body centroid otherwise.
		var ref geom.Vec3
		if c.CellSize > 0 {
			ref = geom.V3(
				(float64(id.X)+0.5)*cellSize.X,
				(float64(id.Y)+0.5)*cellSize.Y,
				(float64(id.Z)+0.5)*cellSize.Z,
			)
		} else {
			ref = gs.centroid
		}
		lp := p.Sub(ref)
		a.sum = a.sum.Add(lp)
		a.sq = a.sq.Add(lp.Mul(lp))
		if cloud.Colors != nil {
			a.col.R += cloud.Colors[i].R
			a.col.G += cloud.Colors[i].G
			a.col.B += cloud.Colors[i].B
		}
		a.count++
	}
	for id, a := range cells {
		inv := 1 / float64(a.count)
		mu := a.sum.Scale(inv)
		variance := a.sq.Scale(inv).Sub(mu.Mul(mu))
		sd := geom.V3(
			math.Sqrt(math.Max(variance.X, 0)),
			math.Sqrt(math.Max(variance.Y, 0)),
			math.Sqrt(math.Max(variance.Z, 0)),
		)
		col := pointcloud.Color{R: a.col.R * inv, G: a.col.G * inv, B: a.col.B * inv}
		doc.Cells[id] = fmt.Sprintf(
			"region %d %d %d holds %d points near %s %s %s spread %s %s %s colored %s %s %s",
			id.X, id.Y, id.Z, quantizeCount(a.count),
			fnum(mu.X, prec), fnum(mu.Y, prec), fnum(mu.Z, prec),
			fnum(sd.X, prec), fnum(sd.Y, prec), fnum(sd.Z, prec),
			fnum(col.R, 2), fnum(col.G, 2), fnum(col.B, 2),
		)
	}
	return doc
}

// quantizeCount rounds a point count to two significant figures so
// sensor-noise fluctuations in cell membership do not invalidate
// otherwise-unchanged captions between frames.
func quantizeCount(n int) int {
	if n < 20 {
		return n
	}
	mag := 1
	for v := n; v >= 100; v /= 10 {
		mag *= 10
	}
	return (n + mag/2) / mag * mag
}

// describePosture produces the human-readable lead-in of the global
// caption from gross body statistics.
func describePosture(gs globalStats) string {
	aspect := gs.size.Y / math.Max(math.Max(gs.size.X, gs.size.Z), 1e-9)
	switch {
	case aspect > 2.2:
		return "a person standing upright"
	case aspect > 1.2:
		return "a person with limbs extended"
	default:
		return "a person in a compact pose"
	}
}

// Size returns the document's total text size in bytes.
func (d Document) Size() int {
	n := len(d.Global)
	for _, c := range d.Cells {
		n += len(c)
	}
	return n
}

// sortedCellIDs returns the cell ids in deterministic order.
func (d Document) sortedCellIDs() []CellID {
	ids := make([]CellID, 0, len(d.Cells))
	for id := range d.Cells {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].X != ids[b].X {
			return ids[a].X < ids[b].X
		}
		if ids[a].Y != ids[b].Y {
			return ids[a].Y < ids[b].Y
		}
		return ids[a].Z < ids[b].Z
	})
	return ids
}

// Marshal flattens the document into one wire payload: the global
// channel line first (two-step ordering), then cell lines.
func (d Document) Marshal() []byte {
	var sb strings.Builder
	sb.WriteString("G|")
	sb.WriteString(d.Global)
	sb.WriteByte('\n')
	for _, id := range d.sortedCellIDs() {
		sb.WriteString("C|")
		sb.WriteString(d.Cells[id])
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// UnmarshalDocument parses a Marshal payload.
func UnmarshalDocument(data []byte) (Document, error) {
	doc := Document{Cells: map[CellID]string{}}
	lines := strings.Split(string(data), "\n")
	seenGlobal := false
	for _, line := range lines {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "G|"):
			doc.Global = line[2:]
			seenGlobal = true
		case strings.HasPrefix(line, "C|"):
			if !seenGlobal {
				return doc, fmt.Errorf("textsem: cell channel before global channel")
			}
			caption := line[2:]
			id, err := cellIDFromCaption(caption)
			if err != nil {
				return doc, err
			}
			doc.Cells[id] = caption
		default:
			return doc, fmt.Errorf("textsem: unknown channel line %q", line)
		}
	}
	if !seenGlobal {
		return doc, fmt.Errorf("textsem: missing global channel")
	}
	return doc, nil
}

func cellIDFromCaption(caption string) (CellID, error) {
	var x, y, z int
	if _, err := fmt.Sscanf(caption, "region %d %d %d", &x, &y, &z); err != nil {
		return CellID{}, fmt.Errorf("textsem: bad cell caption %q: %w", caption, err)
	}
	return newCellID(x, y, z)
}

// newCellID refuses coordinates outside int8: converting one would alias
// another cell (300 → 44).
func newCellID(x, y, z int) (CellID, error) {
	for _, v := range [3]int{x, y, z} {
		if v < math.MinInt8 || v > math.MaxInt8 {
			return CellID{}, fmt.Errorf("textsem: cell %d %d %d outside the grid", x, y, z)
		}
	}
	return CellID{int8(x), int8(y), int8(z)}, nil
}
