package dstruct

import (
	"testing"

	"flit/internal/core"
)

// TestStrideForNameMatchesPolicy: the stride a store sizes its memory by,
// before it builds its policy, is the stride of the policy it then builds.
func TestStrideForNameMatchesPolicy(t *testing.T) {
	for _, name := range core.PolicyNames() {
		pol, err := core.NewPolicyByName(name, 1<<10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := StrideForName(name), StrideFor(pol); got != want {
			t.Fatalf("StrideForName(%q) = %d, the policy it names needs %d", name, got, want)
		}
	}
}
