//! Allocation-count regression wall for the flat hot paths.
//!
//! The engine's arena refactor promises that the warm PSI round-1 server
//! step performs **zero** heap allocations per call when the caller owns
//! the buffers (`server_psi_round_into` with a cached power table), and
//! that a warm `ServerNode::execute` stays at a small constant number of
//! allocations per query (the reply vector that escapes to the caller,
//! plus bookkeeping — never O(rows) beyond it). A counting global
//! allocator pins both properties so an accidental per-row `Vec` in a
//! kernel loop fails CI instead of silently costing throughput.
//!
//! A third wall counts the domain-sized allocations (at least `b·8`
//! bytes) of one warm in-process `Cluster::psi_query_batch`: the round's
//! servers write into buffers the caller sized, read `z` in place and
//! hand their outputs through without copies, so the count is pinned.
//!
//! Everything is asserted inside one `#[test]` so no sibling test thread
//! can allocate mid-measurement; each measurement additionally takes the
//! minimum over several reps to shrug off any stray allocation from the
//! harness itself.

use prism_core::Prg;
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryBatch};
use prism_protocol::engine::{BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode};
use prism_protocol::params::{Initiator, Setup, SystemConfig};
use prism_protocol::psi;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations of at least one domain-length `u64` row (`CELLS · 8` bytes).
static ROW_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= CELLS * 8 {
        ROW_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counter bumps have no
// effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `counter`'s count over one call of `f`, minimized over `reps` warm
/// calls.
fn min_count_of<F: FnMut()>(counter: &AtomicU64, reps: usize, mut f: F) -> u64 {
    f(); // warm
    let mut min = u64::MAX;
    for _ in 0..reps {
        let before = counter.load(Ordering::Relaxed);
        f();
        min = min.min(counter.load(Ordering::Relaxed) - before);
    }
    min
}

/// Allocation count of one call of `f`, minimized over `reps` warm calls.
fn min_allocs_of<F: FnMut()>(reps: usize, f: F) -> u64 {
    min_count_of(&ALLOCATIONS, reps, f)
}

const CELLS: usize = 1_024;
const OWNERS: usize = 3;

/// Domain-sized allocations of one warm one-shard, cache-off
/// `psi_query_batch(sum, avg, count)`. Before the in-process servers
/// wrote in place, the same query made 32: 14 more, for 3 cloned `z`
/// share vectors, 3 `z` row copies into the single shard's sub-batch and
/// 8 shard-output concatenations (2 round-1 and 6 round-2 outputs).
const BATCH_ROW_ALLOCATIONS: u64 = 18;

fn setup() -> Setup {
    Initiator::new(SystemConfig::new(OWNERS, CELLS).with_seed(77))
        .setup()
        .expect("setup")
}

fn owner_shares(delta: u64, b: usize) -> Vec<Vec<u64>> {
    let mut prg = Prg::from_seed(0xA110_C0DE);
    (0..OWNERS)
        .map(|_| (0..b).map(|_| prg.below(delta)).collect())
        .collect()
}

#[test]
fn warm_hot_paths_stay_allocation_free() {
    let setup = setup();
    let sp = &setup.servers[0];
    let shares = owner_shares(sp.delta, sp.b);

    // --- The raw kernel: zero allocations per warm call, exactly.
    {
        let refs: Vec<&[u64]> = shares.iter().map(|s| s.as_slice()).collect();
        let table = sp.power_table();
        let mut out = vec![0u64; sp.b];
        let psi_allocs = min_allocs_of(5, || {
            psi::server_psi_round_into(&refs, sp, &table, &mut out, 1).expect("psi round");
        });
        assert_eq!(
            psi_allocs, 0,
            "warm server_psi_round_into must not touch the heap"
        );
    }

    // --- The full node: the reply vector escapes to the caller, so a
    // warm execute may allocate it (plus O(1) bookkeeping), but nothing
    // per row beyond that.
    {
        let mut node = ServerNode::new(sp.clone());
        for (owner, data) in shares.iter().enumerate() {
            node.store(owner, Column::Ok, data.clone());
        }
        let batch = ServerCmd::Run(BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(QueryOp::Psi)],
            threads: 1,
            range: None,
        });
        let node_allocs = min_allocs_of(5, || {
            node.execute(&batch).expect("execute");
        });
        assert!(
            node_allocs <= 8,
            "warm ServerNode::execute allocated {node_allocs} times per query; \
             expected a small constant (reply vector + bookkeeping)"
        );
        // The permuted ops stage through the arena: same bound.
        let count_batch = ServerCmd::Run(BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(QueryOp::Count)],
            threads: 1,
            range: None,
        });
        let count_allocs = min_allocs_of(5, || {
            node.execute(&count_batch).expect("execute count");
        });
        assert!(
            count_allocs <= 8,
            "warm Count execute allocated {count_allocs} times per query"
        );
    }

    // --- A whole batched query on the in-process cluster: a pinned count
    // of domain-sized allocations, none of them a copy of a z share or a
    // shard output.
    {
        let inputs: Vec<OwnerInput> = (0..OWNERS as u64)
            .map(|j| {
                OwnerInput::from_pairs(
                    (1..=CELLS as u64)
                        .filter(|v| v % (j + 2) != 0)
                        .map(|v| (v, v % 90 + 1)),
                )
            })
            .collect();
        let mut cfg = ClusterConfig::new(CELLS).with_cache(false);
        cfg.agg_domain_max = 2_000;
        let cluster = Cluster::build(&inputs, cfg).expect("cluster");
        let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
        let row_allocs = min_count_of(&ROW_ALLOCATIONS, 3, || {
            cluster.psi_query_batch(&batch).expect("batch");
        });
        assert_eq!(
            row_allocs, BATCH_ROW_ALLOCATIONS,
            "a warm psi_query_batch made {row_allocs} domain-sized allocations"
        );
    }
}
