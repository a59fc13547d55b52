// The experiment goldens pin whole result tables. They train models, so
// they hold only where training is bit-exact: on amd64, whose compiler
// never fuses x*y+z into one fused multiply-add (arm64 may).

//go:build amd64

package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestFig17Golden pins the Fig. 17 and Fig. 17 extension tables at
// SmallScale: every windowed accuracy, retrain count and failure count.
func TestFig17Golden(t *testing.T) {
	figs := []struct {
		name string
		run  func(Scale) Table
	}{
		{"fig17", Fig17},
		{"fig17ext", Fig17Ext},
	}
	got := make([]string, len(figs))
	t.Run("run", func(t *testing.T) {
		for i, f := range figs {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				got[i] = f.run(SmallScale()).String()
			})
		}
	})
	out := strings.Join(got, "\n")

	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("experiment golden mismatch\n--- got\n%s--- want\n%s", out, want)
	}
}
