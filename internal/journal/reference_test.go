package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The eager loader this package had before its table kept frames: every
// record decoded into a Record, tags interned, index records folded into
// the decoded map. It is the oracle FuzzLoad holds the frame table to.

// referenceLoad scans data as a resumed Open did: the records by (kind,
// key), the offset past the last intact record, and the number of
// verdict records seeded; or the error a missing or mismatched header
// makes.
func referenceLoad(data []byte, fingerprint uint64) (map[mapKey]Record, int, int, error) {
	seen := map[mapKey]Record{}
	tags := map[string]string{}
	off, loaded := 0, 0
	first := true
	for {
		rec, n, ok := referenceDecode(data[off:], tags)
		if !ok {
			break
		}
		if first {
			if rec.Kind != KindHeader || rec.Key != fingerprint {
				return nil, 0, 0, fmt.Errorf("journal: checkpoint written for a different program or options (fingerprint %#x, want %#x)", rec.Key, fingerprint)
			}
			first = false
		} else if rec.Kind == KindIndex {
			k := mapKey{Kind(rec.Verdict), rec.Key}
			if vr, ok := seen[k]; ok {
				vr.Tables = rec.Tables
				vr.Indexed = true
				seen[k] = vr
			}
		} else {
			seen[mapKey{rec.Kind, rec.Key}] = rec
			loaded++
		}
		off += n
	}
	if first {
		return nil, 0, 0, fmt.Errorf("journal: no checkpoint header (empty or torn file)")
	}
	return seen, off, loaded, nil
}

// referenceDecode parses the first record in data, growing its model and
// tag lists by append. ok=false: no intact record.
func referenceDecode(data []byte, tags map[string]string) (Record, int, bool) {
	if len(data) < 4 {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	total := 4 + plen + 4
	if plen < 14 || len(data) < total {
		return Record{}, 0, false
	}
	payload := data[4 : 4+plen]
	want := binary.LittleEndian.Uint32(data[4+plen:])
	if crc32.Checksum(payload, crcTable) != want {
		return Record{}, 0, false
	}
	var r Record
	r.Kind = Kind(payload[0])
	r.Verdict = Verdict(payload[1])
	r.Key = binary.LittleEndian.Uint64(payload[2:])
	nm := int(binary.LittleEndian.Uint16(payload[10:]))
	off := 12
	for i := 0; i < nm; i++ {
		if off+2 > plen {
			return Record{}, 0, false
		}
		vl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+vl+8 > plen {
			return Record{}, 0, false
		}
		r.Model = append(r.Model, VarVal{Var: string(payload[off : off+vl]), Val: binary.LittleEndian.Uint64(payload[off+vl:])})
		off += vl + 8
	}
	if off+2 > plen {
		return Record{}, 0, false
	}
	nt := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	for i := 0; i < nt; i++ {
		if off+2 > plen {
			return Record{}, 0, false
		}
		tl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+tl > plen {
			return Record{}, 0, false
		}
		tag, ok := tags[string(payload[off:off+tl])]
		if !ok {
			if tag = string(payload[off : off+tl]); tags != nil {
				tags[tag] = tag
			}
		}
		r.Tables = append(r.Tables, tag)
		off += tl
	}
	if r.Kind == KindHeader {
		if plen < off+len(magic) || string(payload[off:off+len(magic)]) != magic {
			return Record{}, 0, false
		}
	}
	return r, total, true
}
