package core

import "fmt"

// Canonical policy identifiers, shared by every layer that names policies
// in flags, specs or reports (harness, crash tester, store service).
const (
	PolicyNoPersist = "no-persist"
	PolicyPlain     = "plain"
	PolicyIz        = "izraelevitz"
	PolicyAdjacent  = "flit-adjacent"
	PolicyHT        = "flit-ht"
	PolicyPacked    = "flit-packed"
	PolicyPerLine   = "flit-perline"
	PolicyLAP       = "link-and-persist"
)

// PolicyNames lists the canonical identifiers in the paper's order.
func PolicyNames() []string {
	return []string{
		PolicyNoPersist, PolicyPlain, PolicyIz, PolicyAdjacent,
		PolicyHT, PolicyPacked, PolicyPerLine, PolicyLAP,
	}
}

// NewPolicyByName constructs the policy named by one of the Policy*
// identifiers. memWords sizes the per-cache-line DirectMap scheme (it
// must cover the simulated memory); htBytes sizes the hashed
// flit-counter tables, defaulting to the paper's 1MB when zero.
func NewPolicyByName(name string, memWords, htBytes int) (Policy, error) {
	if htBytes == 0 {
		htBytes = 1 << 20
	}
	switch name {
	case PolicyNoPersist:
		return NoPersist{}, nil
	case PolicyPlain:
		return NewPlain(), nil
	case PolicyIz:
		return NewIzraelevitz(), nil
	case PolicyAdjacent:
		return NewFliT(Adjacent{}), nil
	case PolicyHT:
		return NewFliT(NewHashTable(htBytes)), nil
	case PolicyPacked:
		return NewFliT(NewPackedHashTable(htBytes)), nil
	case PolicyPerLine:
		return NewFliT(NewDirectMap(memWords)), nil
	case PolicyLAP:
		return LinkAndPersist{}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", name, PolicyNames())
	}
}
