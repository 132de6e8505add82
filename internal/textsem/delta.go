package textsem

import (
	"fmt"
	"strings"
)

// Update is an inter-frame delta between two Documents (§3.3: "for
// subsequent frames, we can encode only the differences from the
// preceding frame"). Unchanged cells are omitted; removed cells are
// listed explicitly so the receiver can drop them.
type Update struct {
	// Global carries the new global caption when it changed; empty
	// otherwise.
	Global string
	// Changed holds new or modified cell captions.
	Changed map[CellID]string
	// Removed lists cells no longer occupied.
	Removed []CellID
}

// Empty reports whether the update carries nothing.
func (u Update) Empty() bool {
	return u.Global == "" && len(u.Changed) == 0 && len(u.Removed) == 0
}

// Size returns the update's text size in bytes (the wire cost before
// general-purpose compression).
func (u Update) Size() int {
	n := len(u.Global)
	for _, c := range u.Changed {
		n += len(c)
	}
	n += len(u.Removed) * 9 // "R|x y z\n"
	return n
}

// Delta computes the update transforming prev into cur.
func Delta(prev, cur Document) Update {
	u := Update{Changed: map[CellID]string{}}
	if prev.Global != cur.Global {
		u.Global = cur.Global
	}
	for id, caption := range cur.Cells {
		if prev.Cells[id] != caption {
			u.Changed[id] = caption
		}
	}
	for id := range prev.Cells {
		if _, ok := cur.Cells[id]; !ok {
			u.Removed = append(u.Removed, id)
		}
	}
	return u
}

// StableDelta computes the update from prev to cur with a deadband:
// cells whose described moments moved less than tol (meters) keep their
// previous caption instead of being re-sent. This suppresses the caption
// churn caused by sensor noise on quantization boundaries, which would
// otherwise make every frame's delta nearly a full document. Callers
// must track the receiver's state by applying the returned update to
// prev (DPCM-style), not by adopting cur wholesale — otherwise the
// suppressed differences accumulate silently.
func StableDelta(prev, cur Document, tol float64) Update {
	u := Delta(prev, cur)
	if tol <= 0 {
		return u
	}
	for id, caption := range u.Changed {
		old, ok := prev.Cells[id]
		if !ok {
			continue // newly occupied cell: always send
		}
		co, err1 := parseCell(old)
		cn, err2 := parseCell(caption)
		if err1 != nil || err2 != nil {
			continue
		}
		if cellsSimilar(co, cn, tol) {
			delete(u.Changed, id)
		}
	}
	return u
}

// cellsSimilar reports whether two cell descriptions differ by less than
// the deadband.
func cellsSimilar(a, b cellDesc, tol float64) bool {
	if a.mu.Dist(b.mu) > tol || a.sd.Dist(b.sd) > tol {
		return false
	}
	countTol := a.count / 10
	if countTol < 3 {
		countTol = 3
	}
	if b.count < a.count-countTol || b.count > a.count+countTol {
		return false
	}
	return a.col.Dist(b.col) <= 0.08
}

// Apply produces the document resulting from applying u to base.
func Apply(base Document, u Update) Document {
	out := Document{Global: base.Global, Cells: map[CellID]string{}}
	for id, c := range base.Cells {
		out.Cells[id] = c
	}
	if u.Global != "" {
		out.Global = u.Global
	}
	for id, c := range u.Changed {
		out.Cells[id] = c
	}
	for _, id := range u.Removed {
		delete(out.Cells, id)
	}
	return out
}

// Marshal serializes the update. Line types: G| global, C| changed cell,
// R| removed cell.
func (u Update) Marshal() []byte {
	var sb strings.Builder
	if u.Global != "" {
		sb.WriteString("G|")
		sb.WriteString(u.Global)
		sb.WriteByte('\n')
	}
	doc := Document{Cells: u.Changed}
	for _, id := range doc.sortedCellIDs() {
		sb.WriteString("C|")
		sb.WriteString(u.Changed[id])
		sb.WriteByte('\n')
	}
	for _, id := range u.Removed {
		fmt.Fprintf(&sb, "R|%d %d %d\n", id.X, id.Y, id.Z)
	}
	return []byte(sb.String())
}

// UnmarshalUpdate parses a Marshal'd update.
func UnmarshalUpdate(data []byte) (Update, error) {
	u := Update{Changed: map[CellID]string{}}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "G|"):
			u.Global = line[2:]
		case strings.HasPrefix(line, "C|"):
			caption := line[2:]
			id, err := cellIDFromCaption(caption)
			if err != nil {
				return u, err
			}
			u.Changed[id] = caption
		case strings.HasPrefix(line, "R|"):
			var x, y, z int
			if _, err := fmt.Sscanf(line[2:], "%d %d %d", &x, &y, &z); err != nil {
				return u, fmt.Errorf("textsem: bad removal line %q", line)
			}
			id, err := newCellID(x, y, z)
			if err != nil {
				return u, err
			}
			u.Removed = append(u.Removed, id)
		default:
			return u, fmt.Errorf("textsem: unknown update line %q", line)
		}
	}
	return u, nil
}
