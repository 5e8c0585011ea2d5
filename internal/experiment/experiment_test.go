package experiment

import (
	"testing"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests, Figure 3 and the
// ablations in virtual time; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func TestSystemStrings(t *testing.T) {
	want := map[System]string{
		SystemKnative:              "knative",
		SystemOprc:                 "oprc",
		SystemOprcBypass:           "oprc-bypass",
		SystemOprcBypassNonpersist: "oprc-bypass-nonpersist",
	}
	for s, label := range want {
		if s.String() != label {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), label)
		}
	}
	if len(allSystems()) != 4 {
		t.Fatal("allSystems wrong")
	}
}
