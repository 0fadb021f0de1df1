package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/queue"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
)

// This file wires the queue and the store into the systematic enumerator
// (internal/dlcheck): every PWB/PFence boundary of a recorded execution
// is recovered and checked. (The set structures need no adapter: a
// Target embeds its dlcheck.Target.)

// RunQueueDL runs the systematic checker against the durable FIFO queue.
func RunQueueDL(cfg dstruct.Config, opts dlcheck.Options) *dlcheck.Report {
	q := queue.New(cfg)
	return dlcheck.RunQueue(dlcheck.QueueHarness{
		Name:       "queue",
		Mem:        cfg.Heap.Mem(),
		Policy:     cfg.Policy,
		NewSession: func() dlcheck.QueueSession { return q.NewThread() },
		Recover: func(img []uint64) ([]uint64, error) {
			cfg2 := cfg
			cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), cfg.Heap.Watermark())
			return queue.Recover(cfg2).Snapshot(), nil
		},
	}, opts)
}

// NewDLStore builds the store shape the systematic battery enumerates:
// few shards and a small memory (every crash boundary copies the image)
// on the virtual clock. The single source of truth for the flitcrash
// CLI, this package's battery tests and dlcheck's mutation self-tests —
// the service analogue of dlcheck.NewConfig.
func NewDLStore(policy string, mode dstruct.Mode) (*store.Store, error) {
	return store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 8, Buckets: 16,
		Policy: policy, HTBytes: 1 << 14, Mode: mode,
		MemWords: 1 << 17, VirtualClock: true,
	})
}

func dlStoreKey(k uint64) string { return fmt.Sprintf("dlkey-%d", k) }

// dlMaxBatch bounds the enumerated pipeline depth in the Batched and
// Combined modes: deep enough to exercise multi-op commits, shallow
// enough to keep many commit boundaries per run.
const dlMaxBatch = 6

// RunStoreDL runs the systematic checker against a whole store reached
// through sessions of the given mode: workers record service-level
// histories over storeKinds(mode), and every (budgeted) persist boundary
// is recovered with the store's superblock probe and shard-parallel
// rebuild, then checked key by key and value by value.
// Direct sessions are recorded per operation; Batched (the server's
// group-commit executor) and Combined (the per-shard flat combiners, whose
// windows may merge several sessions' vectors) pipeline vectors of varying
// depth, every response recorded only after its vector's commit fence.
//
// With reshardTo > 0 every crash image is recovered through
// store.Reshard to reshardTo shards instead of store.Recover: a reshard
// moves keys, it never creates or destroys them, so every crash state of
// live traffic must come out of it as a complete, duplicate-free keyspace
// under the same durable rule.
//
// st must be freshly created: a recovered key outside the checker's
// namespace is reported as a violation — the "no operation absent from
// the history may appear" half of the durable rule.
func RunStoreDL(st *store.Store, mode store.SessionMode, reshardTo int, opts dlcheck.Options) *dlcheck.Report {
	opts = opts.Normalized()
	keyspace := opts.KeyRange
	if opts.Prefill > keyspace {
		keyspace = opts.Prefill
	}
	// Hash → engine-key translation for recovered snapshots.
	back := make(map[uint64]uint64, keyspace)
	for k := 0; k < keyspace; k++ {
		back[store.HashKey(dlStoreKey(uint64(k)))] = uint64(k)
	}
	name, maxBatch := "store", 1
	if mode != store.Direct {
		name, maxBatch = "store-"+mode.String(), dlMaxBatch
	}
	if reshardTo > 0 {
		name = fmt.Sprintf("%s-reshard(%d→%d)", name, st.NumShards(), reshardTo)
	}
	newExec := executors(st, mode, maxBatch)
	return dlcheck.Run(dlcheck.Harness{
		Name:       name,
		Mem:        st.Mem(),
		Policy:     st.Policy(),
		MaxBatch:   maxBatch,
		NewSession: func() dlcheck.BatchExecutor { return newExec() },
		Kinds:      storeKinds(mode),
		Recover: func(img []uint64) (map[uint64]uint64, error) {
			_, _, final, err := recoverContents(st, img, back, reshardTo)
			return final, err
		},
	}, opts)
}
