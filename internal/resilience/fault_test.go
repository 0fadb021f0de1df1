package resilience

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// echo pumps every byte written to srv back to the client.
func echo(t *testing.T, srv net.Conn) {
	t.Helper()
	go func() {
		buf := make([]byte, 1024)
		for {
			n, err := srv.Read(buf)
			if n > 0 {
				if _, werr := srv.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
}

func TestWrapConnZeroFaultsIsPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if WrapConn(a, Faults{}) != a {
		t.Fatal("zero Faults must return the conn unchanged")
	}
	_ = b
}

func TestFaultConnPartialWritesReassemble(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	echo(t, srv)
	fc := WrapConn(cli, Faults{Seed: 1, PartialWrites: true})
	defer fc.Close()

	msg := bytes.Repeat([]byte("durability"), 50)
	done := make(chan error, 1)
	go func() {
		_, err := fc.Write(msg)
		done <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(fc, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted by partial writes")
	}
}

func TestFaultConnResetAfterBytes(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	echo(t, srv)
	fc := WrapConn(cli, Faults{Seed: 2, ResetAfterBytes: 64})
	defer fc.Close()

	// Drain the echo on the raw conn so the synchronous pipe never wedges
	// the echo goroutine; reading raw keeps fault accounting write-only.
	go io.Copy(io.Discard, cli)

	buf := make([]byte, 32)
	var err error
	for i := 0; i < 100; i++ {
		if _, err = fc.Write(buf); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset after byte budget", err)
	}
	// The conn stays dead: reads fail too.
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read after reset = %v, want ErrInjectedReset", err)
	}
}

func TestFaultConnBlackholeRespectsDeadline(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	echo(t, srv)
	fc := WrapConn(cli, Faults{Seed: 3, BlackholeAfterBytes: 8})
	defer fc.Close()

	if _, err := fc.Write(make([]byte, 16)); err != nil {
		t.Fatalf("priming write: %v", err)
	}
	// Past the budget: writes succeed silently...
	if n, err := fc.Write(make([]byte, 100)); err != nil || n != 100 {
		t.Fatalf("blackholed write = (%d, %v), want silent success", n, err)
	}
	// ...and reads block until the deadline, then report a net timeout.
	fc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := fc.Read(make([]byte, 8))
	if err == nil {
		t.Fatal("blackholed read returned data")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blackholed read err = %v, want deadline timeout", err)
		}
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("blackholed read returned before the deadline")
	}
}

func TestFaultConnDelaysEveryN(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	echo(t, srv)
	fc := WrapConn(cli, Faults{Seed: 4, DelayEvery: 1, WriteDelay: 10 * time.Millisecond})
	defer fc.Close()

	start := time.Now()
	go io.Copy(io.Discard, fc)
	for i := 0; i < 3; i++ {
		if _, err := fc.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("3 delayed writes took %v, want >= 30ms", el)
	}
}
