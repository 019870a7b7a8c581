package scenario

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioNormalize decodes arbitrary bytes as strictly as Load does
// (unknown fields rejected) and, for every document that validates,
// checks the content-addressing invariants: Normalize is idempotent, the
// hash is stable and equal for a document and its normal form, and the
// matrix has workloads × max(1, levelers) × policies cells. Seeds are
// the committed corpus scenarios whose workloads are inline or builtin
// (a replay path needs the file system, so those are left out).
func FuzzScenarioNormalize(f *testing.F) {
	root := filepath.Join("..", "..", "scenarios")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		base := filepath.Base(p)
		if !strings.HasPrefix(base, filePrefix) || !strings.HasSuffix(base, fileSuffix) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if !bytes.Contains(b, []byte(`"path"`)) {
			f.Add(b)
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var s Scenario
		if dec.Decode(&s) != nil || dec.More() || s.Validate() != nil {
			return
		}
		n := s.Normalize()
		c1, err := n.CanonicalJSON()
		if err != nil {
			t.Fatalf("valid scenario has no canonical form: %v", err)
		}
		c2, err := n.Normalize().CanonicalJSON()
		if err != nil {
			t.Fatalf("normalized scenario has no canonical form: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", c1, c2)
		}
		h1, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hn, err := n.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 || h1 != hn {
			t.Fatalf("hash unstable: %s, %s, normalized %s", h1, h2, hn)
		}
		want := len(s.Workloads) * max(1, len(s.Levelers)) * len(s.Policies)
		if got := len(s.Cells()); got != want {
			t.Fatalf("cells = %d, want %d", got, want)
		}
	})
}
