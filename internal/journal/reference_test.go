package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The eager loader this package had before its table kept frames: every
// record decoded into a Record, in the frame layout of MEISSAJ3 — each
// dependency tag its 8 bytes. It is the oracle FuzzLoad holds the frame
// table to, and referenceDecode the one it holds SplitFrame and EntryOf to.

// referenceList is a template list as the reference decodes it.
type referenceList struct {
	key  uint64
	keys []uint64
}

// referenceLoad scans data as a resumed Open did: the records by (kind,
// key), the last template list (nil for none), the offset past the last
// intact record, and the number of verdict records seeded; or the error a
// missing or mismatched header, or an intact record after it that is
// neither a verdict nor a template list, makes; so does an intact kind-3
// frame that is no template list (the tag record of an earlier format).
func referenceLoad(data []byte, fingerprint uint64) (map[mapKey]Record, *referenceList, int, int, error) {
	seen := map[mapKey]Record{}
	rec, off, rest, ok := referenceDecode(data)
	if !ok || rec.Kind != KindHeader || len(rest) < len(magic) || string(rest[:len(magic)]) != magic {
		return nil, nil, 0, 0, fmt.Errorf("journal: no checkpoint header (empty or torn file)")
	}
	if rec.Key != fingerprint {
		return nil, nil, 0, 0, fmt.Errorf("journal: checkpoint written for a different program or options (fingerprint %#x, want %#x)", rec.Key, fingerprint)
	}
	loaded := 0
	var list *referenceList
	for {
		rec, n, rest, ok := referenceDecode(data[off:])
		if !ok {
			if k, intact := referenceIntactKind(data[off:]); intact && k == KindTemplates {
				return nil, nil, 0, 0, fmt.Errorf("journal: kind-%d frame at offset %d that is no template list", k, off)
			}
			break
		}
		switch rec.Kind {
		case KindCheck, KindEmit:
			seen[mapKey{rec.Kind, rec.Key}] = rec
			loaded++
		case KindTemplates:
			list = &referenceList{key: rec.Key, keys: referencePathKeys(rest)}
		default:
			return nil, nil, 0, 0, fmt.Errorf("journal: record of kind %d at offset %d", rec.Kind, off)
		}
		off += n
	}
	return seen, list, off, loaded, nil
}

// referenceIntactKind reports whether data begins with a frame whose
// checksum holds, whatever its payload, and the kind byte it starts with.
func referenceIntactKind(data []byte) (Kind, bool) {
	if len(data) < 4 {
		return 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	if plen < 1 || len(data) < 4+plen+4 {
		return 0, false
	}
	payload := data[4 : 4+plen]
	return Kind(payload[0]), crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[4+plen:])
}

// referencePathKeys decodes a template list's path keys, growing them by
// append.
func referencePathKeys(rest []byte) []uint64 {
	var keys []uint64
	for ; len(rest) >= 8; rest = rest[8:] {
		keys = append(keys, binary.LittleEndian.Uint64(rest))
	}
	return keys
}

// referenceDecode parses the first record in data, growing its model and
// tag lists by append: the record, its frame's length, and the payload's
// bytes after the lists, which only a header and a template list may have
// (a list has empty lists, then whole path keys). ok=false: no intact
// record.
func referenceDecode(data []byte) (Record, int, []byte, bool) {
	if len(data) < 4 {
		return Record{}, 0, nil, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	total := 4 + plen + 4
	if plen < 14 || len(data) < total {
		return Record{}, 0, nil, false
	}
	payload := data[4 : 4+plen]
	want := binary.LittleEndian.Uint32(data[4+plen:])
	if crc32.Checksum(payload, crcTable) != want {
		return Record{}, 0, nil, false
	}
	var r Record
	r.Kind = Kind(payload[0])
	r.Verdict = Verdict(payload[1])
	r.Key = binary.LittleEndian.Uint64(payload[2:])
	nm := int(binary.LittleEndian.Uint16(payload[10:]))
	off := 12
	for i := 0; i < nm; i++ {
		if off+2 > plen {
			return Record{}, 0, nil, false
		}
		vl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+vl+8 > plen {
			return Record{}, 0, nil, false
		}
		r.Model = append(r.Model, VarVal{Var: string(payload[off : off+vl]), Val: binary.LittleEndian.Uint64(payload[off+vl:])})
		off += vl + 8
	}
	if off+2 > plen {
		return Record{}, 0, nil, false
	}
	nt := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	for i := 0; i < nt; i++ {
		if off+8 > plen {
			return Record{}, 0, nil, false
		}
		var tag Tag
		binary.LittleEndian.PutUint32(tag[:], binary.LittleEndian.Uint32(payload[off:]))
		binary.LittleEndian.PutUint32(tag[4:], binary.LittleEndian.Uint32(payload[off+4:]))
		r.Tags = append(r.Tags, tag)
		off += 8
	}
	switch r.Kind {
	case KindHeader:
	case KindTemplates:
		if nm != 0 || nt != 0 || (plen-off)%8 != 0 {
			return Record{}, 0, nil, false
		}
	default:
		if off != plen {
			return Record{}, 0, nil, false
		}
	}
	return r, total, payload[off:], true
}
