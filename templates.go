package meissa

import (
	"io"
	"slices"
	"strconv"

	"repro/internal/expr"
	"repro/internal/sym"
)

// WriteTemplates renders templates in the deterministic text format the
// CLI's -o flag emits: runs of the same program + rules + options produce
// byte-identical files, so a resumed or incremental run can be diffed
// against a cold one (the differential gates of checkpoint/resume and of
// incremental regression both do exactly that).
//
// It is part of every generation that is written out, so it formats with
// strconv and expr.AppendBool, not fmt, into one buffer that is written
// out whenever it passes writeChunk.
func WriteTemplates(w io.Writer, ts []*sym.Template) error {
	const writeChunk = 64 << 10
	var buf []byte
	var vars []expr.Var
	for _, t := range ts {
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = append(buf, '#')
		buf = strconv.AppendInt(buf, int64(t.ID), 10)
		buf = append(buf, " path=["...)
		for i, id := range t.Path {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(id), 10)
		}
		buf = append(buf, "] dropped="...)
		buf = strconv.AppendBool(buf, t.Dropped)
		buf = append(buf, " uncertain="...)
		buf = strconv.AppendBool(buf, t.Uncertain)
		buf = append(buf, '\n')
		for _, c := range t.Constraints {
			buf = append(buf, "  cond "...)
			buf = expr.AppendBool(buf, c)
			buf = append(buf, '\n')
		}
		vars = vars[:0]
		for v := range t.Model {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		for _, v := range vars {
			buf = append(buf, "  model "...)
			buf = append(buf, v...)
			buf = append(buf, '=')
			buf = strconv.AppendUint(buf, t.Model[v], 10)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}
