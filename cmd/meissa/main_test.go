package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the CLI's main instead of the tests when mainArgsEnv holds
// its arguments, one a line: how a test reads what main prints and exits.
func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"meissa"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const mainArgsEnv = "MEISSA_TEST_MAIN_ARGS"

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

// TestErrorsPrefixedOnce pins the text of three errors, a refusal from the
// store, a refusal of the options and a corrupt store file: none says
// "meissa:" or names a package twice, and main prints each as one stderr
// line that begins "meissa: " and exits 1.
func TestErrorsPrefixedOnce(t *testing.T) {
	dir := t.TempDir()
	empty, bad := filepath.Join(dir, "empty.store"), filepath.Join(dir, "bad.store")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"regress on an empty store", []string{"regress", "-corpus", "gw-1", "-store", empty, "-mutate", "1"},
			empty + ": holds no baseline for this program family (run gen with the store first)"},
		{"gen -resume without -checkpoint", []string{"gen", "-corpus", "Router", "-resume", "-o", os.DevNull},
			"Resume: requires Checkpoint (name the checkpoint to resume)"},
		{"gen -store on a corrupt file", []string{"gen", "-corpus", "Router", "-store", bad, "-o", os.DevNull},
			"store: open " + bad + ": corrupt store file: no verdict-store header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if strings.Contains(tc.want, "meissa:") {
				t.Fatalf("%q says meissa:", tc.want)
			}
			for _, prefix := range []string{"store: ", "journal: ", "checkpoint: ", "regress: "} {
				if strings.Count(": "+tc.want, ": "+prefix) > 1 {
					t.Fatalf("%q repeats %q", tc.want, prefix)
				}
			}
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(tc.args, "\n"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("meissa %s: %v, want exit status 1", strings.Join(tc.args, " "), err)
			}
			if got, want := stderr.String(), "meissa: "+tc.want+"\n"; got != want {
				t.Errorf("stderr %q\nwant   %q", got, want)
			}
		})
	}
}
