package sam

import (
	"encoding/json"
	"errors"
	"testing"

	"samnet/internal/stats"
)

// TestMarshalNilPMF is the regression test for the nil-PMF marshal panic: a
// zero-value or hand-built profile must answer ErrNoPMF, not dereference the
// missing PMF. Clone already guarded the same field.
func TestMarshalNilPMF(t *testing.T) {
	for _, p := range []*Profile{
		{},
		{Label: "hand-built", Runs: 3, PMax: stats.Summary{N: 3, Mean: 0.2}},
	} {
		blob, err := json.Marshal(p)
		if err == nil {
			t.Fatalf("marshal of PMF-less profile %+v succeeded: %s", p, blob)
		}
		if !errors.Is(err, ErrNoPMF) {
			t.Errorf("marshal error = %v, want ErrNoPMF in the chain", err)
		}
	}

	// A profile embedded in a larger document hits the same path.
	if _, err := json.Marshal(struct {
		P *Profile `json:"p"`
	}{P: &Profile{}}); !errors.Is(err, ErrNoPMF) {
		t.Errorf("embedded marshal error = %v, want ErrNoPMF in the chain", err)
	}

	// Clone must keep tolerating the same shape.
	c := (&Profile{Label: "x"}).Clone()
	if c.Label != "x" || c.PMF != nil {
		t.Errorf("clone of PMF-less profile = %+v", c)
	}
}
