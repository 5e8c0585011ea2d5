package bubbles

import (
	"testing"

	"github.com/hpcclab/oparaca-go/internal/simtest"
)

func TestBubbles(t *testing.T) { simtest.Bubbles(t) }
