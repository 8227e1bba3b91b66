package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden with current output")

const quickGolden = "testdata/quick.golden"

// TestQuickGolden pins every experiment's quick-scale table byte for byte:
// each All() entry renders on the shared testCtx, in registry order, and
// the concatenation must equal testdata/quick.golden. The shape tests
// above bound a few headline metrics; this one shows that a refactor of
// the measurement layer moved no cell at all. Run with -update to rebless
// after an intentional change, and state the cause.
func TestQuickGolden(t *testing.T) {
	if testScale() != Quick {
		t.Skip("the golden records quick scale")
	}
	t.Parallel()
	all := All()
	out := make([]string, len(all))
	t.Run("render", func(t *testing.T) {
		for i, n := range all {
			t.Run(n.ID, func(t *testing.T) {
				t.Parallel()
				tab, err := n.Run(testCtx)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = tab.String()
			})
		}
	})
	if t.Failed() {
		return
	}
	got := strings.Join(out, "\n")
	if *update {
		if err := os.WriteFile(quickGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		g, w := "<end of file>", "<end of file>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output drifted from %s at line %d:\n got: %s\nwant: %s", quickGolden, i+1, g, w)
		}
	}
}
