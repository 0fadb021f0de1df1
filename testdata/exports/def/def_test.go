package def

import "testing"

func TestOnlySetter(t *testing.T) {
	c := Config{TestOnly: 1}
	(&Handle{}).Domain()
	_ = c
}
