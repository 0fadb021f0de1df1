package crashtest

import (
	"testing"

	"flit/internal/store"
)

// TestStoreCombinedDurableLinearizability is storeBattery over the
// embedded flat-combining path: workers announce op vectors to the
// store's combiner, whose windows may merge several sessions' vectors,
// and the ack rule under test is that nothing responds before its
// window's one fence. The workers' ±1 Adds are coalesced and answered
// blind, so every recovered counter must be the acknowledged deltas plus
// some subset of the pending ones.
func TestStoreCombinedDurableLinearizability(t *testing.T) {
	storeBattery(t, store.Combined, storeShape)
}

// TestStoreCombinedDL is storeBattery over the combining path at
// denseShape. Concurrent sessions' vectors merge into shared combiner
// windows here, so the enumeration covers boundaries inside multi-session
// windows — executed-but-unfenced operations from several announcers at
// once.
func TestStoreCombinedDL(t *testing.T) { storeBattery(t, store.Combined, denseShape) }

// TestStoreCombinedCheckerHasTeeth is storeTooth over the combining path.
func TestStoreCombinedCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Combined, storeShape) }

// TestStoreCombinedDLCheckerHasTeeth is storeTooth over the combining
// path at denseShape.
func TestStoreCombinedDLCheckerHasTeeth(t *testing.T) { storeTooth(t, store.Combined, denseShape) }
