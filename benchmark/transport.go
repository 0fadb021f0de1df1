package main

import (
	"net"
	"sync/atomic"
)

// transportCounts is what the counting transport saw, both ends together:
// every Read and Write call is one system call on a socket, and the bytes are
// what crossed it. Atomics, because the client and the server handler count
// from their own goroutines.
type transportCounts struct {
	reads, writes, bytes atomic.Uint64
}

func (c *transportCounts) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.bytes.Store(0)
}

func (c *transportCounts) calls() uint64 { return c.reads.Load() + c.writes.Load() }

// countingConn counts Read and Write calls and bytes and passes everything
// else through: it buffers nothing and delays nothing. Used in traced runs
// only; untraced net_* runs use the bare socket.
type countingConn struct {
	net.Conn
	counts *transportCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.reads.Add(1)
	c.counts.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.bytes.Add(uint64(n))
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	counts *transportCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, counts: l.counts}, nil
}
