package loadgen

import (
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

// TestBubbles runs this package's bubble tests; see internal/simtest.
func TestBubbles(t *testing.T) { simtest.Bubbles(t) }

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Concurrency != 8 || cfg.Duration != time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
}
