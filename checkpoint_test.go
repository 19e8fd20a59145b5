package meissa_test

// Crash-safety acceptance tests for checkpoint/resume (the journal), the
// per-path panic isolation, and the solver-budget degradation — at the
// whole-system level, over real corpus programs.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/journal"
	"repro/internal/programs"
	"repro/internal/rulediff"
	"repro/internal/sym"
)

// renderSansID renders one template with its (position-dependent) ID
// stripped, for comparisons across runs where a skipped path shifts the
// numbering of everything after it.
func renderSansID(tm *sym.Template) string {
	r := string(renderTemplates([]*sym.Template{tm}))
	if i := strings.IndexByte(r, ' '); i >= 0 {
		return r[i:]
	}
	return r
}

// checkpointHeader is the header frame a checkpoint of fingerprint fp
// begins with, as journal.Open writes it.
func checkpointHeader(t *testing.T, fp uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "header.journal")
	j, err := journal.Open(path, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitRecord reads the first frame of data as a record: the record, the
// frame's length, and ok=false when data begins with no intact record.
func splitRecord(data []byte) (journal.Record, int, bool) {
	_, n, ok := journal.SplitFrame(data)
	if !ok {
		return journal.Record{}, 0, false
	}
	e, ok := journal.EntryOf(data[:n])
	return e.Record(), n, ok
}

// TestCheckpointBytesPerRecord: a checkpoint's size is a counted property
// of what it holds, gated without a clock. A record carries each
// dependency tag as 8 bytes of hashes, so gw-2/set-4's checkpoint holds
// its 868 verdicts at about 109 bytes each; spelt out as text, the tags
// took 234.
func TestCheckpointBytesPerRecord(t *testing.T) {
	opts := at(1)
	opts.Checkpoint = filepath.Join(t.TempDir(), "gw2.journal")
	gen := run{p: programs.GW(2, programs.Set4), opts: opts}.gen(t)
	fi, err := os.Stat(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	header := int64(len(checkpointHeader(t, 0)))
	perRecord := float64(fi.Size()-header) / float64(gen.JournalAppended)
	t.Logf("%d bytes, %d records: %.1f bytes a record", fi.Size(), gen.JournalAppended, perRecord)
	if gen.JournalAppended < 800 || perRecord > 115 {
		t.Errorf("%d records at %.1f bytes each; want about 868 at no more than 115", gen.JournalAppended, perRecord)
	}
}

// TestCheckpointKillHelper is the subprocess body of the SIGKILL test:
// it runs a checkpointed generation slowed by an emulated per-check
// solver overhead (which does not enter the journal fingerprint — it
// changes no verdict) so the parent can kill it mid-exploration.
func TestCheckpointKillHelper(t *testing.T) {
	if os.Getenv("MEISSA_CHECKPOINT_HELPER") != "1" {
		t.Skip("subprocess helper")
	}
	p := corpusProgram(t, os.Getenv("MEISSA_HELPER_CORPUS"))
	opts := at(1)
	opts.Checkpoint = os.Getenv("MEISSA_HELPER_JOURNAL")
	opts.StorePath = os.Getenv("MEISSA_HELPER_STORE") // empty: no store
	opts.SolverOverhead = 2 * time.Millisecond
	run{p: p, opts: opts}.gen(t)
}

// TestKillResumeByteIdentical is the headline acceptance test: start a
// checkpointed generation in a subprocess, SIGKILL it mid-run, resume
// from the surviving journal, and require (a) test-case output
// byte-identical to an uninterrupted run and (b) no journaled path
// re-solved — every solver interaction is either a journal hit or a
// fresh call, never both, so hits + calls must equal the clean run's
// calls exactly.
//
// The "+store" variant kills a run that was also going to commit to a
// verdict store (the commit happens at the end, so the kill leaves the
// store without the family) and resumes it with the same store: the
// resumed run must commit the verdicts it loaded from the checkpoint
// together with the ones it derived, so that the store alone then answers
// a whole generation.
func TestKillResumeByteIdentical(t *testing.T) {
	for _, name := range []string{"Router", "gw-1", "gw-1+store"} {
		t.Run(name, func(t *testing.T) {
			name, withStore := strings.CutSuffix(name, "+store")
			p := corpusProgram(t, name)
			jpath := filepath.Join(t.TempDir(), "journal.bin")
			spath := ""
			if withStore {
				spath = filepath.Join(t.TempDir(), "verdicts.store")
			}

			cmd := exec.Command(os.Args[0], "-test.run=TestCheckpointKillHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"MEISSA_CHECKPOINT_HELPER=1",
				"MEISSA_HELPER_CORPUS="+name,
				"MEISSA_HELPER_JOURNAL="+jpath,
				"MEISSA_HELPER_STORE="+spath,
			)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Kill as soon as the journal holds a few records beyond the
			// header — its first batch of appends, mid-exploration, with
			// the rest of the run still ahead.
			deadline := time.Now().Add(30 * time.Second)
			for {
				if st, err := os.Stat(jpath); err == nil && st.Size() > 200 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("journal never grew; helper did not start exploring")
				}
				time.Sleep(time.Millisecond)
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait() // reap; the kill error state is expected

			clean := get(t, genKey(name, "", 1, ""))
			opts := at(1)
			opts.Checkpoint, opts.Resume, opts.StorePath = jpath, true, spath
			resumed := observe(run{p: p, opts: opts}.res(t))
			r, c := resumed.work, clean.work

			if resumed.digest != clean.digest {
				t.Fatalf("resumed output differs from clean run (%d vs %d templates)", r.Templates, c.Templates)
			}
			if r.JournalHits == 0 {
				t.Error("resume answered nothing from the journal despite surviving records")
			}
			if r.Checks+r.JournalHits != c.Checks {
				t.Errorf("journaled paths were re-solved: resumed calls %d + hits %d != clean calls %d",
					r.Checks, r.JournalHits, c.Checks)
			}
			if r.Checks >= c.Checks {
				t.Errorf("resume saved no solver work: %d calls vs clean %d", r.Checks, c.Checks)
			}
			if r.Checks == 0 {
				t.Error("the resume solved nothing: the kill landed after the helper had finished, and the test showed no resume")
			}
			if withStore {
				warm := observe(storeRun(p, nil, 1, spath).res(t))
				if warm.work.Checks != 0 || warm.work.JournalHits != c.Checks {
					t.Errorf("store left incomplete by the resumed run: a store-only generation made %d solver calls and %d hits, want 0 and %d",
						warm.work.Checks, warm.work.JournalHits, c.Checks)
				}
				if warm.digest != clean.digest {
					t.Error("store-only generation after the resumed run differs from the clean run")
				}
			}
		})
	}
}

// TestTruncatedJournalResume simulates the torn-write crash
// deterministically: write a complete journal, chop it mid-record, and
// resume. The loader must fall back to the last intact record boundary
// and the resumed run must still be byte-identical.
func TestTruncatedJournalResume(t *testing.T) {
	for _, name := range []string{"Router", "gw-1"} {
		t.Run(name, func(t *testing.T) {
			clean := get(t, genKey(name, "", 1, "checkpoint"))
			data := clean.read(t, "checkpoint")
			// 60% of the file, an arbitrary offset almost surely inside a
			// record — exactly what a crash mid-write leaves behind.
			opts := at(1)
			opts.Checkpoint, opts.Resume = filepath.Join(t.TempDir(), "journal.bin"), true
			if err := os.WriteFile(opts.Checkpoint, data[:len(data)*6/10], 0o644); err != nil {
				t.Fatal(err)
			}

			resumed := observe(run{p: corpusProgram(t, name), opts: opts}.res(t))
			r, c := resumed.work, clean.work
			if resumed.digest != clean.digest {
				t.Fatalf("resume from truncated journal diverged (%d vs %d templates)", r.Templates, c.Templates)
			}
			if r.JournalHits == 0 {
				t.Error("no journal hits after truncation to 60%")
			}
			if r.Checks+r.JournalHits != c.Checks {
				t.Errorf("resumed calls %d + hits %d != clean calls %d", r.Checks, r.JournalHits, c.Checks)
			}
		})
	}
}

// TestResumedJournalByteIdentical: a sequential run appends its verdict
// records in DFS order, so a run resumed from a prefix of a journal (cut
// at a record boundary) must re-derive exactly the missing suffix — same
// keys, same verdicts, same models, and the same dependency lists —
// leaving a file byte-identical to the uninterrupted run's.
func TestResumedJournalByteIdentical(t *testing.T) {
	for _, name := range []string{"Router", "gw-1", "gw-2"} {
		t.Run(name, func(t *testing.T) {
			clean := get(t, genKey(name, "", 1, "checkpoint"))
			want := clean.read(t, "checkpoint")
			// Walk the frames (4-byte length, payload, 4-byte CRC) to the
			// first boundary past the middle.
			cut, records, tagged := 0, 0, 0
			for off := 0; off < len(want); records++ {
				rec, n, ok := splitRecord(want[off:])
				if !ok {
					t.Fatalf("journal does not parse at offset %d", off)
				}
				off += n
				if len(rec.Tags) > 0 {
					tagged++
				}
				if cut == 0 && off > len(want)/2 {
					cut = off
				}
			}
			if tagged == 0 || cut == 0 || cut == len(want) {
				t.Fatalf("vacuous journal: %d records, %d with tags, cut at %d of %d", records, tagged, cut, len(want))
			}
			opts := at(1)
			opts.Checkpoint, opts.Resume = filepath.Join(t.TempDir(), "journal.bin"), true
			if err := os.WriteFile(opts.Checkpoint, want[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := run{p: corpusProgram(t, name), opts: opts}.gen(t)
			if resumed.JournalHits == 0 || resumed.JournalAppended == 0 {
				t.Fatalf("resume answered %d interactions from the journal and appended %d records; want both nonzero",
					resumed.JournalHits, resumed.JournalAppended)
			}
			sameFile(t, "journal after resume against the uninterrupted run's", opts.Checkpoint, clean, "checkpoint")
		})
	}
}

// TestResumeFingerprintMismatch: a journal written under verdict-
// affecting options must refuse to resume a run with different ones —
// silently mixing them would corrupt verdicts.
func TestResumeFingerprintMismatch(t *testing.T) {
	opts := at(1)
	opts.Checkpoint = get(t, genKey("Router", "", 1, "checkpoint")).copy(t, "checkpoint")
	opts.Resume = true
	opts.NoSummary = true // changes which queries are posed and journal keys' meaning
	if _, err := (run{p: corpusProgram(t, "Router"), opts: opts}).do(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume with mismatched options: %v; want fingerprint error", err)
	}
}

// TestPathErrorsCappedAcrossPhases: a generation keeps at most sym's cap
// of recorded panics however many its summary and final pass recovered
// between them, and Recovered stays the true total. gw-3/set-4 with a panic
// on every 7th descent recovers in both phases.
func TestPathErrorsCappedAcrossPhases(t *testing.T) {
	opts := at(1)
	descents := 0
	opts.PathHook = func([]cfg.NodeID) {
		if descents++; descents%7 == 0 {
			panic("injected fault")
		}
	}
	gen := run{p: programs.GW(3, programs.Set4), opts: opts}.gen(t)
	if sum := gen.SummaryStats.Recovered; sum == 0 || sum == gen.Recovered {
		t.Fatalf("summary recovered %d of %d panics; want some in each phase", sum, gen.Recovered)
	}
	if gen.Recovered != 132 {
		t.Fatalf("Recovered = %d, want 132", gen.Recovered)
	}
	if len(gen.PathErrors) > 64 {
		t.Fatalf("%d path errors recorded, want at most 64", len(gen.PathErrors))
	}
}

// TestSystemPanicIsolationRouter injects a per-path panic through the
// public Options.PathHook on the Router corpus and requires generation
// to complete with the panicking path recorded and every other verdict
// identical — in sequential and parallel mode.
func TestSystemPanicIsolationRouter(t *testing.T) {
	p := corpusProgram(t, "Router")
	base := at(1)
	base.NoSummary = true // 1:1 path-to-template for exact comparison
	clean := run{p: p, opts: base}.gen(t)
	if len(clean.Templates) < 3 {
		t.Fatalf("Router produced only %d templates", len(clean.Templates))
	}
	victim := fmt.Sprint(clean.Templates[1].Path)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := base
			opts.Parallelism = workers
			opts.PathHook = func(path []cfg.NodeID) {
				if fmt.Sprint(path) == victim {
					panic("injected corpus fault")
				}
			}
			res, err := run{p: p, opts: opts}.do()
			if err != nil {
				t.Fatalf("generation did not survive the injected panic: %v", err)
			}
			gen := res.Gen
			if gen.Recovered != 1 {
				t.Fatalf("Recovered = %d, want 1", gen.Recovered)
			}
			if len(gen.PathErrors) != 1 || fmt.Sprint(gen.PathErrors[0].Path) != victim {
				t.Fatalf("PathErrors = %v, want exactly the victim path", gen.PathErrors)
			}
			if len(gen.Templates) != len(clean.Templates)-1 {
				t.Fatalf("templates = %d, want %d", len(gen.Templates), len(clean.Templates)-1)
			}
			// Every surviving verdict identical to the clean run's.
			byPath := map[string]string{}
			for _, tm := range clean.Templates {
				byPath[fmt.Sprint(tm.Path)] = renderSansID(tm)
			}
			for _, tm := range gen.Templates {
				k := fmt.Sprint(tm.Path)
				if k == victim {
					t.Fatalf("panicked path still produced a template")
				}
				if byPath[k] != renderSansID(tm) {
					t.Errorf("path %s verdict diverged after recovery", k)
				}
			}
		})
	}
}

// TestBudgetSupersetRouter: acceptance for graceful degradation — a
// budget-limited run keeps a superset of the unlimited run's paths on a
// real corpus program.
func TestBudgetSupersetRouter(t *testing.T) {
	p := corpusProgram(t, "Router")
	budget := func(n int) *meissa.GenResult {
		opts := at(1)
		opts.SolverSearchBudget = n
		return run{p: p, opts: opts}.gen(t)
	}
	unlimited := budget(0)
	limited := budget(1) // one backtracking step per query: nearly everything Unknown

	kept := map[string]bool{}
	for _, tm := range limited.Templates {
		kept[fmt.Sprint(tm.Path)] = true
	}
	for _, tm := range unlimited.Templates {
		if !kept[fmt.Sprint(tm.Path)] {
			t.Errorf("unlimited-run path %v missing under budget", tm.Path)
		}
	}
	if limited.SMT.Unknowns == 0 || limited.SMT.BudgetExhausted == 0 {
		t.Errorf("budget run reported no unknowns (unknowns=%d budget=%d)",
			limited.SMT.Unknowns, limited.SMT.BudgetExhausted)
	}
}

// oldMagics are the checkpoint formats of earlier releases.
var oldMagics = []string{"MEISSAJ1", "MEISSAJ2"}

// writeOldCheckpoint writes a checkpoint under fp in a format of earlier
// releases: MEISSAJ1, the header, then a verdict frame and a frame of kind
// 3 holding its tags; or MEISSAJ2, the header, then a verdict frame whose
// tags are spelt out.
func writeOldCheckpoint(t *testing.T, path, magic string, fp uint64) []byte {
	t.Helper()
	frame := func(out, payload []byte) []byte {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		return binary.LittleEndian.AppendUint32(append(out, payload...), crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	}
	// payload: kind verdict key(8) nm(2) {model}* nt(2) {tlen(2) tag}* [magic]
	data := frame(nil, append(binary.LittleEndian.AppendUint64([]byte{byte(journal.KindHeader), 0}, fp), append([]byte{0, 0, 0, 0}, magic...)...))
	verdict := binary.LittleEndian.AppendUint64([]byte{byte(journal.KindCheck), byte(journal.Sat)}, 1)
	tags := append([]byte{1, 0, 6, 0}, "t#miss"...)
	if magic == "MEISSAJ1" {
		data = frame(data, append(verdict, 0, 0, 0, 0))
		verdict = binary.LittleEndian.AppendUint64([]byte{3, byte(journal.KindCheck)}, 1)
	}
	data = frame(data, append(append(verdict, 0, 0), tags...))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// refusesOldCheckpoint checks that err refuses the checkpoint of an
// earlier format at path: the journal names itself once, then the file,
// where it read the format and, last, the way out; and that the file is as
// it was.
func refusesOldCheckpoint(t *testing.T, err error, path, magic string, data []byte) {
	t.Helper()
	if err == nil {
		t.Fatalf("a %s checkpoint was accepted", magic)
	}
	head := "journal: " + path + ": the header at offset 0 reads " + magic + ", "
	tail := ": re-create it with a cold run, `meissa gen -checkpoint` without -resume"
	if msg := err.Error(); !strings.HasPrefix(msg, head) || !strings.HasSuffix(msg, tail) {
		t.Errorf("error %q\nwant %q ... %q", msg, head, tail)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Error("the refused checkpoint changed")
	}
}

// TestResumeRefusesOldCheckpoint: `gen -resume` refuses a checkpoint of
// an earlier format instead of reading it as a torn file.
func TestResumeRefusesOldCheckpoint(t *testing.T) {
	p := corpusProgram(t, "Router")
	for _, magic := range oldMagics {
		t.Run(magic, func(t *testing.T) {
			opts := at(1)
			opts.Checkpoint, opts.Resume = filepath.Join(t.TempDir(), "old.journal"), true
			sys, fp := run{p: p, opts: opts}.system(t)
			data := writeOldCheckpoint(t, opts.Checkpoint, magic, fp)
			_, err := sys.Generate()
			refusesOldCheckpoint(t, err, opts.Checkpoint, magic, data)
		})
	}
}

// TestRegressRefusesOldBaseline: Regress refuses a baseline checkpoint of
// an earlier format.
func TestRegressRefusesOldBaseline(t *testing.T) {
	p := corpusProgram(t, "Router")
	newRules, _ := rulediff.MutateArgs(p.Prog, p.Rules, 1)
	for _, magic := range oldMagics {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			opts := at(1)
			_, fp := run{p: p, opts: opts}.system(t)
			base := filepath.Join(dir, "old.journal")
			data := writeOldCheckpoint(t, base, magic, fp)
			opts.Checkpoint = filepath.Join(dir, "next.journal")
			_, err := run{p: p, rules: newRules, opts: opts, regress: true, old: p.Rules, baseline: base}.do()
			refusesOldCheckpoint(t, err, base, magic, data)
		})
	}
}
