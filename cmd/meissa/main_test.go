package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
// FILE:LINE:COL of the bad token, for a -corpus program's -s too.
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
		corpus                       bool // -corpus Router, not -p ok.p4
	}{
		{"P4 parse error", "-p", "syntax.p4", "header h { bit<8> k bit<8> x; }\n",
			`:1:21: expected ";", found bit`, false},
		{"P4 check error", "-p", "check.p4", "header h { bit<8> k; }\ncontrol c { apply { u.apply(); } }\npipeline p { control = c; }\n",
			`:2:21: apply of unknown table "u"`, false},
		{"rules syntax error", "-r", "syntax.rules", "table t {\n  h.k=1 -> set(1)\n  h.k=2 -> set(;\n}\n",
			`:3:16: expected number, found ;`, false},
		{"bind error", "-r", "bind.rules", "table t {\n  h.k=1 -> set(16);\n}\n",
			`:2:3: table t entry 0: argument 16 of set is wider than its 4-bit parameter v`, false},
		{"spec syntax error", "-s", "syntax.lpi", "spec s {\n  assume h.k == ;\n}\n",
			`:2:17: expected expression, found ;`, false},
		{"spec assume error", "-s", "assume.lpi", "spec s {\n  assume h.nope == 1;\n}\n",
			`:2:10: header "h" has no field "nope"`, false},
		{"corpus spec syntax error", "-s", "syntax.lpi", "spec s {\n  assume h.k == ;\n}\n",
			`:2:17: expected expression, found ;`, true},
		{"corpus spec assume error", "-s", "assume.lpi", "spec s {\n  assume h.nope == 1;\n}\n",
			`:2:10: unknown header "h"`, true},
	} {
		path := write(tc.file, tc.text)
		args := []string{"-p", prog, tc.flag, path, "-o", os.DevNull}
		if tc.flag == "-p" {
			args = []string{"-p", path}
		}
		if tc.corpus {
			args = []string{"-corpus", "Router", tc.flag, path, "-o", os.DevNull}
		}
		err := cmdGen(args)
		if want := path + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: gen = %v\nwant %s", tc.name, err, want)
		}
	}
}

// TestRefusedRegressWritesNothing: a regression refused for want of a
// baseline leaves its working directory as it found it — no -emit-rules
// file, and no store file or lock created by opening the missing store.
func TestRefusedRegressWritesNothing(t *testing.T) {
	dir := t.TempDir()
	cmd := mainCmd(dir, "regress", "-corpus", "gw-1", "-store", "e.store", "-mutate", "1", "-emit-rules", "x.txt")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("regress on a missing store: %v, want exit status 1", err)
	}
	if want := "meissa: e.store: holds no baseline for this program family (run gen with the store first)\n"; stderr.String() != want {
		t.Errorf("stderr %q\nwant   %q", stderr.String(), want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("the refused regression left %s", e.Name())
	}
}

// TestErrorsPrefixedOnce pins the text of errors, refusals from the store,
// of the options and of the flags, and a corrupt store file: none says
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
		{"gen -p with -corpus", []string{"gen", "-corpus", "Router", "-p", bad, "-o", os.DevNull},
			"-p and -corpus both name a program: give one"},
		{"regress -rules-new with -mutate", []string{"regress", "-corpus", "Router", "-store", empty, "-rules-new", bad, "-mutate", "5"},
			"-rules-new and -mutate both name the new rules: give one"},
		{"test -window 0", []string{"test", "-corpus", "Router", "-window", "0"},
			"-window 0: want at least 1 in-flight case"},
		{"test -window -4", []string{"test", "-corpus", "Router", "-window", "-4"},
			"-window -4: want at least 1 in-flight case"},
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
			cmd := mainCmd("", tc.args...)
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

// mainCmd is a subprocess that runs main with args in dir (the test's own
// working directory when dir is "").
func mainCmd(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	return cmd
}

// TestRegressWritesReport: `regress -metrics-out M` writes M, a run report
// of command regress with its regress section.
func TestRegressWritesReport(t *testing.T) {
	dir := t.TempDir()
	if out, err := mainCmd(dir, "gen", "-corpus", "gw-1", "-store", "v.store", "-o", os.DevNull, "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("gen -store: %v\n%s", err, out)
	}
	report := filepath.Join(dir, "m.json")
	if out, err := mainCmd(dir, "regress", "-corpus", "gw-1", "-store", "v.store", "-mutate", "1",
		"-metrics-out", report, "-o", os.DevNull, "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("regress: %v\n%s", err, out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Command != "regress" || rep.Regress == nil {
		t.Errorf("report of command %q, regress section %+v", rep.Command, rep.Regress)
	}
}

// TestQuantilesKeepSubMicrosecond: a latency under a microsecond prints
// at ns resolution, not rounded to 0s.
func TestQuantilesKeepSubMicrosecond(t *testing.T) {
	var buf bytes.Buffer
	writeReport(&buf, &obs.Report{
		Command: "gen",
		Solver:  &obs.SolverReport{LatencyQuantiles: &obs.Quantiles{P50: 350, P90: 1499, P99: 2.5e6}},
	})
	if want := "  solver latency p50=350ns p90=1µs p99=2.5ms\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("report\n%s\nlacks %q", buf.String(), want)
	}
}
