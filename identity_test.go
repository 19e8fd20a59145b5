package meissa_test

import (
	"fmt"
	"path/filepath"
	"testing"

	meissa "repro"
)

// TestIdentitiesPinned holds a system's two identities, the checkpoint
// fingerprint and the store family, to the values checkpoints and stores
// already on disk were written under: a change to what they digest makes
// every one of those files unreadable (a fingerprint error) or unfound (an
// empty family).
func TestIdentitiesPinned(t *testing.T) {
	for _, tc := range []struct {
		prog    string
		summary bool
		fp, fam uint64
	}{
		{"Router", true, 0x6123287054c23865, 0x3079c5eabc40b543},
		{"Router", false, 0x8302407ed2895bc2, 0xb0d9295416767ee0},
		{"gw-1", true, 0x0bac4a83d48a9926, 0x3c22508a7dab81be},
		{"gw-1", false, 0xc4cb9cb835606cfb, 0x981c17989989c953},
	} {
		name := fmt.Sprintf("%s summary=%v", tc.prog, tc.summary)
		p := corpusProgram(t, tc.prog)
		opts := meissa.Options{NoSummary: !tc.summary, StorePath: filepath.Join(t.TempDir(), "s")}
		sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sys.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.StoreStatus()
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.fp || st.Fingerprint != tc.fp || st.Family != tc.fam {
			t.Errorf("%s: fingerprint %#x (store %#x), family %#x; want %#x, %#x", name, fp, st.Fingerprint, st.Family, tc.fp, tc.fam)
		}
	}
}
