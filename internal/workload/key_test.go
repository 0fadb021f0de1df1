package workload

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestAppendKeyMatchesSprintf pins the allocation-free key renderer to
// the canonical %016d form it replaced: any divergence would silently
// split the keyspace between old and new call sites.
func TestAppendKeyMatchesSprintf(t *testing.T) {
	cases := []uint64{0, 1, 9, 10, 99, 1e6, 1e15, 1e16 - 1, 1e16, 1<<48 - 1, ^uint64(0)}
	for _, i := range cases {
		want := fmt.Sprintf("user%016d", i)
		if got := string(AppendKey(nil, i)); got != want {
			t.Errorf("AppendKey(nil, %d) = %q, want %q", i, got, want)
		}
	}
	// AppendKey must append, not overwrite.
	if got := string(AppendKey([]byte("x/"), 7)); got != "x/user0000000000000007" {
		t.Errorf("AppendKey prefix handling: got %q", got)
	}
	f := func(i uint64) bool { return string(AppendKey(nil, i)) == fmt.Sprintf("user%016d", i) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeyReusedBufferIsAllocationFree: the hot-loop spelling —
// AppendKey into a reused buffer — must not allocate once the buffer
// has grown.
func TestAppendKeyReusedBufferIsAllocationFree(t *testing.T) {
	buf := make([]byte, 0, len(KeyPrefix)+20)
	n := testing.AllocsPerRun(1000, func() {
		buf = AppendKey(buf[:0], 123456)
	})
	if n != 0 {
		t.Fatalf("AppendKey into a reused buffer allocates %.1f times per op, want 0", n)
	}
}
