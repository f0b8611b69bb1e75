package main

import (
	"io"
	"strings"
	"testing"
)

// TestUnknownShedPolicyRejectedOnEveryTarget: -shed-policy bogus used to run
// silently as "reject" on the simulator while scheduler and tcp refused it.
// The name is resolved before any target runs, so all three fail alike.
func TestUnknownShedPolicyRejectedOnEveryTarget(t *testing.T) {
	for _, target := range []string{"sim", "scheduler", "tcp"} {
		err := run([]string{"-target", target, "-profile", "ci-smoke", "-shed-policy", "bogus"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown shed policy") {
			t.Errorf("-target %s -shed-policy bogus: err = %v, want unknown shed policy", target, err)
		}
	}
}
