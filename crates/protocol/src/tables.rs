//! Owner-side table construction — Step 1 of every PRISM operation.
//!
//! Each owner maps its distinct `A_c` values through the public domain map
//! into a length-`b` indicator table χ (§5.1), optionally extended with
//! aggregation payloads: `⟨x_{i1}, x_{i2}⟩` pairs for PSI-Sum (§6.1) where
//! `x_{i2}` is the per-cell SUM of the aggregation attribute, and
//! `⟨x_{i1}, x_{i2}, x_{i3}⟩` triples for PSI-Average (§6.2) where `x_{i3}`
//! counts the contributing tuples. Max/median keep the per-cell MAX
//! alongside. One pass over the owner's rows produces all of them.
//!
//! [`share_owner`] is the whole owner side of Phase 1 (§4, Table 11) in
//! one routine: tabulate an [`OwnerInput`] over a window of cells and
//! secret-share the configured column set in one canonical draw order,
//! returning each server's `(Column, shares)` list plus the per-cell sums
//! and maxima that stay with the owner. The in-memory driver, the
//! networked harnesses, the benches and the examples all outsource
//! through it, for Phase 1 (window `0..b`) and for delta uploads alike.

use crate::engine::Column;
use crate::error::{ProtocolError, Result};
use crate::params::{OwnerParams, SHAMIR_SERVERS};
use prism_core::{DomainMap, Permutation, Prg};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// One owner's input relation: rows of `(set value, aggregation values)`.
/// Set values are 1-based global cells (`1..=b`). All owners must supply
/// the same number of aggregation attributes.
#[derive(Debug, Clone, Default)]
pub struct OwnerInput {
    /// `(A_c value, [A_x1, A_x2, …])` rows.
    pub rows: Vec<(u64, Vec<u64>)>,
}

impl OwnerInput {
    /// Rows with a single aggregation attribute.
    pub fn from_pairs(rows: impl IntoIterator<Item = (u64, u64)>) -> Self {
        OwnerInput {
            rows: rows.into_iter().map(|(c, x)| (c, vec![x])).collect(),
        }
    }

    /// Set-only rows (no aggregation attributes).
    pub fn from_set(values: impl IntoIterator<Item = u64>) -> Self {
        OwnerInput {
            rows: values.into_iter().map(|c| (c, Vec::new())).collect(),
        }
    }
}

/// One owner's shared columns for a window of cells, plus the owner-side
/// tables that are never uploaded.
#[derive(Debug)]
pub struct OwnerShares {
    /// `columns[φ]` is server φ's `(column, shares)` list in the canonical
    /// draw order; a server the configuration gives nothing (the Shamir-only
    /// server without aggregation columns) gets an empty list.
    pub columns: Vec<Vec<(Column, Vec<u64>)>>,
    /// Per-attribute per-cell sums over the window (median's input).
    pub sums: Vec<Vec<u64>>,
    /// Per-attribute per-cell maxima over the window (max rounds 2–3).
    pub maxima: Vec<Vec<u64>>,
}

/// Tabulate `input` over the cells `window` and secret-share the column
/// set the flags ask for, drawing all randomness from `seed`.
///
/// The window is `0..b` for Phase 1 and `b..b+added` for a delta upload
/// under the grown parameters from [`crate::params::Setup::grow`]; it must
/// end at `op.b`. Verification copies of a delta are permuted by the
/// appended tail block of `pf_db1`/`pf_db2` — block-diagonal growth makes
/// that block applied to the segment equal the grown permutation's
/// appended segment. Every row's value must fall in the window and carry
/// exactly `n_attrs` aggregation values.
///
/// Canonical column and draw order (identical `(op, input, window, flags,
/// seed)` give identical shares, whichever harness stores them):
/// `Ok`, then with verification `VOk` (permuted complement), `OkDb1`,
/// `OkDb2` — all additive, to servers 0 and 1 — then with aggregation, per
/// attribute `a`, `Agg(a)` and (with verification) `VAgg(a)`, and finally
/// `AOk` — Shamir, to all three servers.
pub fn share_owner(
    op: &OwnerParams,
    input: &OwnerInput,
    window: Range<usize>,
    with_verification: bool,
    with_aggregation: bool,
    n_attrs: usize,
    seed: u64,
) -> Result<OwnerShares> {
    if n_attrs > u8::MAX as usize {
        return Err(ProtocolError::ParameterMismatch(format!(
            "at most {} aggregation attributes supported, got {n_attrs}",
            u8::MAX
        )));
    }
    if window.start > window.end || window.end != op.b {
        return Err(ProtocolError::ParameterMismatch(format!(
            "share window {}..{} must be a tail of the {}-cell domain",
            window.start, window.end, op.b
        )));
    }
    let len = window.len();
    let mut indicator = vec![0u64; len];
    let mut counts = vec![0u64; len];
    let mut sums = vec![vec![0u64; len]; n_attrs];
    let mut maxima = vec![vec![0u64; len]; n_attrs];
    for (set_v, aggs) in &input.rows {
        if aggs.len() != n_attrs {
            return Err(ProtocolError::ParameterMismatch(format!(
                "row with {} aggregation attributes, expected {n_attrs}",
                aggs.len()
            )));
        }
        let i = set_v
            .checked_sub(1)
            .map(|c| c as usize)
            .filter(|c| window.contains(c))
            .ok_or_else(|| ProtocolError::OutOfDomain {
                value: format!(
                    "{set_v} (window holds values {}..={})",
                    window.start + 1,
                    window.end
                ),
            })?
            - window.start;
        indicator[i] = 1;
        counts[i] += 1;
        for (a, &v) in aggs.iter().enumerate() {
            sums[a][i] = sums[a][i].wrapping_add(v);
            maxima[a][i] = maxima[a][i].max(v);
        }
    }

    // Phase 1 borrows the owner permutations; a delta cuts only their
    // appended blocks, and nothing is cut without verification.
    fn block(p: &Permutation, start: usize) -> Result<Cow<'_, Permutation>> {
        if start == 0 {
            return Ok(Cow::Borrowed(p));
        }
        p.tail_block(start).map(Cow::Owned).ok_or_else(|| {
            ProtocolError::ParameterMismatch(
                "owner permutation is not block-diagonal at the window start".into(),
            )
        })
    }
    let perms = if with_verification {
        Some((
            block(&op.pf_db1, window.start)?,
            block(&op.pf_db2, window.start)?,
        ))
    } else {
        None
    };

    let mut draw = Draw {
        op,
        prg: Prg::from_seed(seed),
        columns: (0..SHAMIR_SERVERS).map(|_| Vec::new()).collect(),
    };
    draw.additive(Column::Ok, &indicator);
    if let Some((db1, db2)) = &perms {
        let complement: Vec<u64> = indicator.iter().map(|&x| 1 - x).collect();
        draw.additive(Column::VOk, &db1.apply(&complement));
        draw.additive(Column::OkDb1, &db1.apply(&indicator));
        draw.additive(Column::OkDb2, &db2.apply(&indicator));
    }
    if with_aggregation {
        for (a, sum) in sums.iter().enumerate() {
            draw.shamir(Column::Agg(a as u8), sum);
            if let Some((db1, _)) = &perms {
                draw.shamir(Column::VAgg(a as u8), &db1.apply(sum));
            }
        }
        draw.shamir(Column::AOk, &counts);
    }
    Ok(OwnerShares {
        columns: draw.columns,
        sums,
        maxima,
    })
}

/// The share stream of one [`share_owner`] call: each column's shares move
/// straight into the per-server lists.
struct Draw<'a> {
    op: &'a OwnerParams,
    prg: Prg,
    columns: Vec<Vec<(Column, Vec<u64>)>>,
}

impl Draw<'_> {
    fn additive(&mut self, column: Column, values: &[u64]) {
        let [s0, s1] = share_indicator(values, self.op.delta, &mut self.prg).shares;
        self.columns[0].push((column, s0));
        self.columns[1].push((column, s1));
    }

    fn shamir(&mut self, column: Column, values: &[u64]) {
        let shares = share_payload(values, &self.op.field, &mut self.prg).shares;
        for (server, data) in self.columns.iter_mut().zip(shares) {
            server.push((column, data));
        }
    }
}

/// An owner's fully materialized per-cell tables for one query attribute
/// pair `(A_c, A_x)`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct OwnerTable {
    /// `x_{i1}`: 1 iff some owned tuple maps to cell i.
    pub indicator: Vec<u64>,
    /// `x_{i2}`: sum of `A_x` over tuples in cell i (0 if none).
    pub sums: Vec<u64>,
    /// `x_{i3}`: number of tuples in cell i (0 if none) — the `aOK` column.
    pub counts: Vec<u64>,
    /// per-cell maximum of `A_x` (0 if none) — feeds max/median round 2.
    pub maxima: Vec<u64>,
}

impl OwnerTable {
    /// Build from `(set_value, agg_value)` rows and a domain map.
    ///
    /// Returns [`ProtocolError::OutOfDomain`] if any set value does not map.
    pub fn build<T, D>(rows: &[(T, u64)], domain: &D) -> Result<OwnerTable>
    where
        D: DomainMap<T> + ?Sized,
        T: std::fmt::Debug,
    {
        let b = domain.size();
        let mut t = OwnerTable {
            indicator: vec![0; b],
            sums: vec![0; b],
            counts: vec![0; b],
            maxima: vec![0; b],
        };
        for (set_v, agg_v) in rows {
            let i = domain
                .index_of(set_v)
                .ok_or_else(|| ProtocolError::OutOfDomain {
                    value: format!("{set_v:?}"),
                })?;
            t.indicator[i] = 1;
            t.sums[i] = t.sums[i].wrapping_add(*agg_v);
            t.counts[i] += 1;
            t.maxima[i] = t.maxima[i].max(*agg_v);
        }
        Ok(t)
    }

    /// Build an indicator-only table from bare set values.
    pub fn from_set<T, D>(values: &[T], domain: &D) -> Result<OwnerTable>
    where
        D: DomainMap<T> + ?Sized,
        T: std::fmt::Debug,
    {
        let rows: Vec<(&T, u64)> = values.iter().map(|v| (v, 0)).collect();
        // Re-map through a reference-domain shim.
        let b = domain.size();
        let mut t = OwnerTable {
            indicator: vec![0; b],
            sums: vec![0; b],
            counts: vec![0; b],
            maxima: vec![0; b],
        };
        for (v, _) in rows {
            let i = domain
                .index_of(v)
                .ok_or_else(|| ProtocolError::OutOfDomain {
                    value: format!("{v:?}"),
                })?;
            t.indicator[i] = 1;
            t.counts[i] += 1;
        }
        Ok(t)
    }

    /// Domain size `b`.
    pub fn len(&self) -> usize {
        self.indicator.len()
    }

    /// True iff the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.indicator.is_empty()
    }

    /// The complement table χ̄ used by PSI verification (§5.2 Step 1).
    pub fn complement(&self) -> Vec<u64> {
        self.indicator.iter().map(|&x| 1 - x).collect()
    }
}

/// The additive shares of one owner's indicator vector, ready for upload —
/// `shares[φ][i]` goes to server φ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndicatorShares {
    /// Per-server share vectors (length 2).
    pub shares: [Vec<u64>; 2],
}

/// Share an indicator (or any `Z_δ`) vector two ways.
pub fn share_indicator(values: &[u64], delta: u64, prg: &mut Prg) -> IndicatorShares {
    let (a, b) = prism_core::share_vector2(values, delta, prg);
    IndicatorShares { shares: [a, b] }
}

/// Shamir shares of one owner's payload column — `shares[φ][i]` goes to
/// server φ (length 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PayloadShares {
    /// Per-server share vectors (length 3, evaluation points 1, 2, 3).
    pub shares: Vec<Vec<u64>>,
}

/// Shamir-share a payload column three ways (degree 1).
pub fn share_payload(
    values: &[u64],
    field: &prism_core::ShamirCtx,
    prg: &mut Prg,
) -> PayloadShares {
    PayloadShares {
        shares: field.share_vector(values, crate::params::SHAMIR_SERVERS, prg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use prism_core::{DenseIntDomain, EnumeratedDomain, ShamirCtx};
    use proptest::prelude::*;

    #[test]
    fn build_aggregates_per_cell() {
        let domain = DenseIntDomain::one_to(5);
        // Two tuples in cell of value 2, one in cell 5.
        let rows = vec![(2u64, 10), (2, 30), (5, 7)];
        let t = OwnerTable::build(&rows, &domain).unwrap();
        assert_eq!(t.indicator, vec![0, 1, 0, 0, 1]);
        assert_eq!(t.sums, vec![0, 40, 0, 0, 7]);
        assert_eq!(t.counts, vec![0, 2, 0, 0, 1]);
        assert_eq!(t.maxima, vec![0, 30, 0, 0, 7]);
    }

    #[test]
    fn build_rejects_out_of_domain() {
        let domain = DenseIntDomain::one_to(3);
        let err = OwnerTable::build(&[(9u64, 1)], &domain).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfDomain { .. }));
    }

    #[test]
    fn from_set_categorical_matches_paper_tables() {
        // Hospital 2 (Table 2): diseases {Cancer, Fever} over the global
        // domain {Cancer, Fever, Heart} ⇒ χ = ⟨1, 1, 0⟩ (§5.1 Example).
        let domain = EnumeratedDomain::new(["Cancer", "Fever", "Heart"]);
        let t = OwnerTable::from_set(&["Cancer", "Fever", "Fever"], &domain).unwrap();
        assert_eq!(t.indicator, vec![1, 1, 0]);
        assert_eq!(t.counts, vec![1, 2, 0]);
    }

    #[test]
    fn complement_flips_bits() {
        let domain = DenseIntDomain::one_to(4);
        let t = OwnerTable::from_set(&[1u64, 4], &domain).unwrap();
        assert_eq!(t.indicator, vec![1, 0, 0, 1]);
        assert_eq!(t.complement(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn indicator_shares_reconstruct() {
        let mut prg = Prg::from_seed(1);
        let values = vec![1u64, 0, 1, 1, 0];
        let sh = share_indicator(&values, 113, &mut prg);
        for i in 0..values.len() {
            assert_eq!(
                prism_core::reconstruct2(sh.shares[0][i], sh.shares[1][i], 113),
                values[i]
            );
        }
    }

    #[test]
    fn payload_shares_reconstruct() {
        let mut prg = Prg::from_seed(2);
        let field = ShamirCtx::default();
        let values = vec![100u64, 0, 55];
        let sh = share_payload(&values, &field, &mut prg);
        assert_eq!(sh.shares.len(), 3);
        for i in 0..values.len() {
            let ys: Vec<u64> = (0..3).map(|k| sh.shares[k][i]).collect();
            assert_eq!(field.reconstruct_raw(&ys), values[i]);
        }
    }

    fn setup(b: usize, seed: u64) -> Setup {
        let cfg = SystemConfig::new(3, b)
            .with_seed(seed)
            .with_agg_domain_max(1000);
        Initiator::new(cfg).setup().unwrap()
    }

    /// `attrs` random aggregation values per row over the cells `window`.
    fn random_input(window: Range<usize>, attrs: usize, seed: u64) -> OwnerInput {
        let mut prg = Prg::from_seed(seed);
        let n = prg.below(2 * window.len() as u64 + 1);
        let rows = (0..n)
            .map(|_| {
                let v = prg.range(window.start as u64 + 1, window.end as u64 + 1);
                (v, (0..attrs).map(|_| prg.below(1000)).collect())
            })
            .collect();
        OwnerInput { rows }
    }

    /// Every returned column reconstructed, in list order: additive
    /// columns from servers 0 and 1, Shamir columns from all three.
    fn reconstruct(op: &OwnerParams, sh: &OwnerShares) -> Vec<(Column, Vec<u64>)> {
        let additive = sh.columns[0].len() - sh.columns[2].len();
        (0..sh.columns[0].len())
            .map(|i| {
                let (column, s0) = &sh.columns[0][i];
                let (c1, s1) = &sh.columns[1][i];
                assert_eq!(c1, column);
                let plain = if i < additive {
                    (0..s0.len())
                        .map(|r| prism_core::reconstruct2(s0[r], s1[r], op.delta))
                        .collect()
                } else {
                    let (c2, s2) = &sh.columns[2][i - additive];
                    assert_eq!(c2, column);
                    (0..s0.len())
                        .map(|r| op.field.reconstruct_raw(&[s0[r], s1[r], s2[r]]))
                        .collect()
                };
                (*column, plain)
            })
            .collect()
    }

    /// The plaintext oracle: one [`OwnerTable`] per attribute (at least
    /// one, for the indicator and counts) over the whole domain.
    fn plain_tables(op: &OwnerParams, input: &OwnerInput, attrs: usize) -> Vec<OwnerTable> {
        let domain = DenseIntDomain::one_to(op.b as u64);
        (0..attrs.max(1))
            .map(|a| {
                let rows: Vec<(u64, u64)> = input
                    .rows
                    .iter()
                    .map(|(v, aggs)| (*v, aggs.get(a).copied().unwrap_or(0)))
                    .collect();
                OwnerTable::build(&rows, &domain).unwrap()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_share_owner_reconstructs_to_the_plaintext(
            b in 1usize..40,
            attrs in 0usize..3,
            verify: bool,
            aggregate: bool,
            seed: u64,
        ) {
            let setup = setup(b, seed % 1000);
            let op = &setup.owner;
            let input = random_input(0..b, attrs, seed);
            let sh = share_owner(op, &input, 0..b, verify, aggregate, attrs, seed).unwrap();
            let t = plain_tables(op, &input, attrs);
            let mut want = vec![(Column::Ok, t[0].indicator.clone())];
            if verify {
                want.push((Column::VOk, op.pf_db1.apply(&t[0].complement())));
                want.push((Column::OkDb1, op.pf_db1.apply(&t[0].indicator)));
                want.push((Column::OkDb2, op.pf_db2.apply(&t[0].indicator)));
            }
            if aggregate {
                for (a, ta) in t.iter().take(attrs).enumerate() {
                    want.push((Column::Agg(a as u8), ta.sums.clone()));
                    if verify {
                        want.push((Column::VAgg(a as u8), op.pf_db1.apply(&ta.sums)));
                    }
                }
                want.push((Column::AOk, t[0].counts.clone()));
            }
            prop_assert_eq!(reconstruct(op, &sh), want);
            for a in 0..attrs {
                prop_assert_eq!(&sh.sums[a], &t[a].sums);
                prop_assert_eq!(&sh.maxima[a], &t[a].maxima);
            }
            prop_assert_eq!(sh.sums.len(), attrs);
        }
    }

    #[test]
    fn delta_window_reconstructs_to_the_grown_phase1_tail() {
        let (b0, added) = (12, 5);
        let grown = setup(b0, 3).grow(added, 1, 3).unwrap();
        let op = &grown.owner;
        let input = random_input(b0..b0 + added, 2, 8);
        let full = share_owner(op, &input, 0..b0 + added, true, true, 2, 1).unwrap();
        let delta = share_owner(op, &input, b0..b0 + added, true, true, 2, 2).unwrap();
        let full_plain = reconstruct(op, &full);
        let delta_plain = reconstruct(op, &delta);
        assert_eq!(delta_plain.len(), 9);
        for ((fc, fv), (dc, dv)) in full_plain.iter().zip(&delta_plain) {
            assert_eq!(fc, dc);
            assert_eq!(&fv[b0..], &dv[..], "{fc:?}");
        }
        for a in 0..2 {
            assert_eq!(&full.sums[a][b0..], &delta.sums[a][..]);
            assert_eq!(&full.maxima[a][b0..], &delta.maxima[a][..]);
        }
    }

    #[test]
    fn flags_choose_seven_three_or_one_additive_columns() {
        let setup = setup(6, 5);
        let input = OwnerInput::from_pairs([(1, 4), (3, 9)]);
        for (verify, aggregate, additive, shamir) in [
            (true, true, 7, 3),
            (false, true, 3, 2),
            (false, false, 1, 0),
        ] {
            let sh = share_owner(&setup.owner, &input, 0..6, verify, aggregate, 1, 9).unwrap();
            let counts: Vec<usize> = sh.columns.iter().map(Vec::len).collect();
            assert_eq!(
                counts,
                vec![additive, additive, shamir],
                "{verify} {aggregate}"
            );
        }
    }

    #[test]
    fn share_owner_rejects_bad_rows_and_windows() {
        let op = &setup(6, 6).owner;
        let share = |input: &OwnerInput, window: Range<usize>| {
            share_owner(op, input, window, true, true, 1, 0)
        };
        let outside = OwnerInput::from_pairs([(2, 1)]);
        assert!(matches!(
            share(&outside, 3..6),
            Err(ProtocolError::OutOfDomain { .. })
        ));
        assert!(matches!(
            share(&OwnerInput::from_pairs([(7, 1)]), 0..6),
            Err(ProtocolError::OutOfDomain { .. })
        ));
        assert!(
            share(&OwnerInput::from_set([1]), 0..6).is_err(),
            "attribute count"
        );
        assert!(share(&outside, 0..5).is_err(), "window must end at b");
    }

    #[test]
    fn empty_rows_give_zero_tables() {
        let domain = DenseIntDomain::one_to(3);
        let t = OwnerTable::build::<u64, _>(&[], &domain).unwrap();
        assert_eq!(t.indicator, vec![0, 0, 0]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
