package main

import (
	"os"
	"path/filepath"
	"testing"
)

const cliProg = `header h { bit<8> k; bit<8> x; }
action set(bit<4> v) { h.x = v; }
table t { key = { h.k : exact; } actions = { set; } }
control c { apply { t.apply(); } }
pipeline p { control = c; }
`

// TestInputErrorsNameTheirFile: whichever reader rejects a file — the P4
// parser or checker, the rules reader or binder, the spec reader or the
// translation of an assume — the error `meissa gen` returns leads with
// FILE:LINE:COL of the bad token.
func TestInputErrorsNameTheirFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prog := write("ok.p4", cliProg)
	for _, tc := range []struct {
		name, flag, file, text, want string
	}{
		{"P4 parse error", "-p", "syntax.p4", "header h { bit<8> k bit<8> x; }\n",
			`:1:21: expected ";", found bit`},
		{"P4 check error", "-p", "check.p4", "header h { bit<8> k; }\ncontrol c { apply { u.apply(); } }\npipeline p { control = c; }\n",
			`:2:21: apply of unknown table "u"`},
		{"rules syntax error", "-r", "syntax.rules", "table t {\n  h.k=1 -> set(1)\n  h.k=2 -> set(;\n}\n",
			`:3:16: expected number, found ;`},
		{"bind error", "-r", "bind.rules", "table t {\n  h.k=1 -> set(16);\n}\n",
			`:2:3: table t entry 0: argument 16 of set is wider than its 4-bit parameter v`},
		{"spec syntax error", "-s", "syntax.lpi", "spec s {\n  assume h.k == ;\n}\n",
			`:2:17: expected expression, found ;`},
		{"spec assume error", "-s", "assume.lpi", "spec s {\n  assume h.nope == 1;\n}\n",
			`:2:10: header "h" has no field "nope"`},
	} {
		path := write(tc.file, tc.text)
		args := []string{"-p", prog, tc.flag, path, "-o", os.DevNull}
		if tc.flag == "-p" {
			args = []string{"-p", path}
		}
		err := cmdGen(args)
		if want := path + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: gen = %v\nwant %s", tc.name, err, want)
		}
	}
}
