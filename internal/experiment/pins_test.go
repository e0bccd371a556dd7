package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenExtensionArtifacts pins the two experiments that run the
// non-paper protocols (MDSR, AOMDV/AODV in protocols; cached DSR in
// blackhole) byte for byte: the rendered artifact at seed 2005 and 10 runs
// must match testdata/<id>.golden. A routing change that moves these
// numbers changes protocol behaviour, not just code.
func TestGoldenExtensionArtifacts(t *testing.T) {
	for _, id := range []string{"protocols", "blackhole"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			d, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Run(Config{Runs: 10, Seed: 2005}).Render(); got != string(want) {
				t.Errorf("%s artifact moved:\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}
