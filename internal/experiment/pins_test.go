package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenExtensionArtifacts pins extension experiments byte for byte:
// the two that run the non-paper protocols (MDSR, AOMDV/AODV in protocols;
// cached DSR in blackhole), the ROC matrix (the hybrid's neighbor-table and
// delay channels) and the closed IDS loop. The rendered artifact at seed
// 2005 and 10 runs must match testdata/<id>.golden. A routing or detector
// change that moves these numbers changes behaviour, not just code.
func TestGoldenExtensionArtifacts(t *testing.T) {
	for _, id := range []string{"protocols", "blackhole", "rocmatrix", "verifyloop"} {
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
