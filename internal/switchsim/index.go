package switchsim

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// The row index. A table's hit is its first row in priority order that
// covers every key; the index finds that row without walking the rows
// before it. It is a tuple-space search (Srinivasan, Suri and Varghese,
// SIGCOMM '99): a row whose cells are all in mask form — exact, ternary,
// LPM, wildcard — covers a key vector exactly when the masked keys equal
// its values, so the rows that share a mask vector form a group that
// hashes the masked keys to its candidate rows. A row with a range cell
// cannot be hashed; those rows sit on a list that is scanned.
//
// A lookup takes the lowest covering row over the range list and the
// groups. Groups are ordered by their lowest row, so once a group's lowest
// row is not below the best hit so far, neither is any later group's.
// Every candidate is re-checked with Cell.Covers, so a hash collision costs
// a comparison and can never produce a match.

// maskGroup is the rows of one mask vector, as candidates ordered by hash
// and then by row. first is an open-addressed table from a hash to the
// position of its first candidate, -1 in an empty slot; its length is a
// power of two, at least twice the distinct hashes, and a hash starts
// probing at its top bits (shift is 64 minus log2 of the length).
type maskGroup struct {
	masks []uint64 // one a key, narrowed to the key's width
	low   int32
	first []int32
	shift uint8
	cands []candidate
}

type candidate struct {
	hash uint64
	row  int32
}

// maskedHash mixes the masked key values into one word.
func maskedHash(kv, masks []uint64) uint64 {
	h := uint64(0)
	for j, m := range masks {
		h = (h ^ kv[j]&m) * 0x9e3779b97f4a7c15
	}
	return h
}

// buildIndex indexes the table's match rows. A bound cell's mask is within
// its key's width, so an exact cell and a full-length prefix on the same
// key fall in one group.
func (t *tblPlan) buildIndex() {
	nk := len(t.keys)
	byMask := map[string]int{}
	var key []byte
	masks, vals := make([]uint64, nk), make([]uint64, nk)
rows:
	for r := range t.ents {
		row := t.cells[r*nk : (r+1)*nk]
		key = key[:0]
		for j, c := range row {
			if c.Range {
				t.ranged = append(t.ranged, int32(r))
				continue rows
			}
			masks[j], vals[j] = c.Mask, c.Val
			key = binary.LittleEndian.AppendUint64(key, masks[j])
		}
		gi, ok := byMask[string(key)]
		if !ok {
			// Groups open in row order, so they are ascending by lowest row.
			gi = len(t.groups)
			byMask[string(key)] = gi
			t.groups = append(t.groups, maskGroup{masks: slices.Clone(masks), low: int32(r)})
		}
		g := &t.groups[gi]
		g.cands = append(g.cands, candidate{maskedHash(vals, g.masks), int32(r)})
	}
	for gi := range t.groups {
		g := &t.groups[gi]
		slices.SortFunc(g.cands, func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.row, b.row))
		})
		lg := uint8(bits.Len(uint(2*len(g.cands) - 1)))
		g.first, g.shift = make([]int32, 1<<lg), 64-lg
		for i := range g.first {
			g.first[i] = -1
		}
		for k, c := range g.cands {
			if k > 0 && c.hash == g.cands[k-1].hash {
				continue
			}
			i := c.hash >> g.shift
			for g.first[i] >= 0 {
				i = (i + 1) & uint64(len(g.first)-1)
			}
			g.first[i] = int32(k)
		}
	}
}

// find returns the position of the first candidate with hash h, -1 when
// there is none.
func (g *maskGroup) find(h uint64) int32 {
	for i := h >> g.shift; ; i = (i + 1) & uint64(len(g.first)-1) {
		if k := g.first[i]; k < 0 || g.cands[k].hash == h {
			return k
		}
	}
}

// lookup returns the row that wins for the key values kv — the lowest
// that covers them all — or len(t.ents) when none does.
func (t *tblPlan) lookup(kv []uint64) int32 {
	best := int32(len(t.ents))
	for _, r := range t.ranged {
		if t.covers(r, kv) {
			best = r
			break
		}
	}
	for i := range t.groups {
		g := &t.groups[i]
		if g.low >= best {
			break
		}
		h := maskedHash(kv, g.masks)
		k := g.find(h)
		if k < 0 {
			continue
		}
		for _, c := range g.cands[k:] {
			if c.hash != h || c.row >= best {
				break
			}
			if t.covers(c.row, kv) {
				best = c.row
				break
			}
		}
	}
	return best
}

// covers reports whether row r covers every key value.
func (t *tblPlan) covers(r int32, kv []uint64) bool {
	nk := len(t.keys)
	for j, c := range t.cells[int(r)*nk : int(r+1)*nk] {
		if !c.Covers(kv[j]) {
			return false
		}
	}
	return true
}
