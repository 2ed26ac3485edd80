//! Property tests for `ShardPlan`'s re-planning edges — the inputs the
//! elastic control plane actually feeds it under churn: zero-row
//! appends (a delta upload whose tail lands entirely in existing rows),
//! range-scoped batches whose window lies wholly past a shard (or the
//! whole domain), and degenerate single-row shards (`shards == b`, the
//! smallest ranges a registry can carve). Each property pins the
//! invariant the routers rely on: specs always partition `[0, b)`, no
//! spec is ever empty, and a split batch always yields exactly
//! `shard_count` sub-batches whose z-slices re-concatenate to the
//! clamped window.

use prism_protocol::engine::{BatchItem, BatchQuery, QueryOp};
use prism_protocol::shard::ShardPlan;
use proptest::prelude::*;

/// A batch with one z-backed item whose z covers `len` cells, scoped to
/// `range` when given — the shape every networked round ships.
fn batch(len: usize, range: Option<(u64, u64)>) -> BatchQuery {
    BatchQuery {
        zs: vec![(0..len as u64).map(|v| v * 13 + 1).collect()],
        items: vec![BatchItem::with_z(QueryOp::Sum(0), 0)],
        threads: 1,
        range,
    }
}

/// Specs partition `[0, b)` in order with no empty shard.
fn assert_partition(plan: &ShardPlan, b: usize) {
    let mut next = 0;
    for s in plan.specs() {
        assert_eq!(s.start, next, "specs must tile the domain in order");
        assert!(s.len > 0, "no spec may be empty");
        next += s.len;
    }
    assert_eq!(next, b, "specs must cover exactly the domain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `append` keeps every existing start (the PSU blinding alignment
    /// guarantee) and never opens an empty shard — a zero-row append
    /// with `open_new = true` must leave the plan's shape unchanged.
    #[test]
    fn append_edges_preserve_the_partition(
        b in 1usize..=48,
        k in 1usize..=48,
        added in 0usize..=16,
        open_new: bool,
    ) {
        let plan = ShardPlan::new(b, k);
        let grown = plan.append(added, open_new);
        assert_partition(&grown, b + added);
        for (old, new) in plan.specs().iter().zip(grown.specs()) {
            prop_assert_eq!(old.start, new.start, "append may never move a start");
        }
        if added == 0 {
            prop_assert_eq!(
                grown.shard_count(),
                plan.shard_count(),
                "a zero-row append must not open a shard"
            );
        }
        let expect = plan.shard_count() + usize::from(open_new && added > 0);
        prop_assert_eq!(grown.shard_count(), expect);
    }

    /// A range-scoped batch splits into exactly one sub-batch per shard
    /// even when the window lies entirely past some shards — or past the
    /// whole domain, where every sub-batch is empty. The per-shard
    /// z-slices always sum back to the clamped window.
    #[test]
    fn scoped_split_covers_exactly_the_clamped_window(
        b in 1usize..=40,
        k in 1usize..=40,
        gs in 0u64..=80,
        glen in 0u64..=80,
    ) {
        let plan = ShardPlan::new(b, k);
        let subs = plan.split_batch(&batch(glen as usize, Some((gs, glen)))).unwrap();
        prop_assert_eq!(subs.len(), plan.shard_count());
        let covered: usize = subs.iter().map(|s| s.zs[0].len()).sum();
        let clamped = (gs + glen).min(b as u64).saturating_sub(gs.min(b as u64)) as usize;
        prop_assert_eq!(covered, clamped, "z-slices must cover the clamped window once");
        for sub in &subs {
            let (lo, len) = sub.range.unwrap();
            prop_assert_eq!(sub.zs[0].len(), len as usize);
            prop_assert!(lo as usize + len as usize <= b);
        }
        if gs >= b as u64 {
            prop_assert!(
                subs.iter().all(|s| s.zs[0].is_empty()),
                "a window past the domain evaluates nothing anywhere"
            );
        }
    }

    /// Single-row shards (`shards == b`, the registry's smallest carve)
    /// survive the whole re-planning surface: every spec is one row,
    /// scoped splits hand each shard at most its one row, and appends
    /// still extend cleanly.
    #[test]
    fn single_row_shards_survive_replanning(
        b in 1usize..=24,
        gs in 0u64..=30,
        glen in 0u64..=30,
    ) {
        let plan = ShardPlan::new(b, b);
        assert_partition(&plan, b);
        for s in plan.specs() {
            prop_assert_eq!(s.len, 1, "shards == b must carve single rows");
        }

        let subs = plan.split_batch(&batch(glen as usize, Some((gs, glen)))).unwrap();
        prop_assert_eq!(subs.len(), b);
        for sub in &subs {
            prop_assert!(sub.zs[0].len() <= 1, "a single-row shard sees at most one cell");
        }

        let grown = plan.append(1, true);
        assert_partition(&grown, b + 1);
        prop_assert_eq!(grown.specs().last().unwrap().len, 1);
    }
}
