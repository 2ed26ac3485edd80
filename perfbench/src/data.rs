//! Seeded workload inputs and the plaintext answers every query is
//! checked against.
//!
//! Owners hold LineItem-shaped rows: one row per held Orderkey (the set
//! attribute) carrying a Partkey (the aggregation attribute, always ≥ 1).
//! [`OwnerData`] keeps each owner's column dense over the domain, with 0
//! marking a cell the owner does not hold, so the expected answer of any
//! op is a direct per-cell computation.

use prism_core::Prg;
use prism_protocol::average::AvgCell;
use prism_protocol::driver::OwnerInput;
use prism_protocol::max::MaxCell;
use prism_protocol::AggResult;
use prism_workload::LineItemConfig;

/// Aggregation-domain bound for LineItem Partkeys (≤ 200 000).
pub const AGG_DOMAIN_MAX: u64 = 250_000;

/// Every owner's Partkey per domain cell (0 = cell not held).
#[derive(Debug, Clone)]
pub struct OwnerData {
    /// `values[j][cell]`.
    pub values: Vec<Vec<u64>>,
}

impl OwnerData {
    /// `owners` LineItem owners over `1..=domain`, each holding a cell
    /// with probability `fraction` — partially overlapping sets, so PSI
    /// and PSU differ.
    pub fn lineitem(domain: usize, owners: usize, fraction: f64, seed: u64) -> OwnerData {
        let gen = LineItemConfig::sparse(domain as u64, fraction, seed);
        let values = (0..owners)
            .map(|j| {
                let mut col = vec![0u64; domain];
                for r in gen.generate_owner(j) {
                    col[(r.ok - 1) as usize] = r.pk;
                }
                col
            })
            .collect();
        OwnerData { values }
    }

    /// A delta of `added` fresh cells appended after the current domain,
    /// drawn like [`OwnerData::lineitem`] from `seed`.
    pub fn delta(&self, added: usize, fraction: f64, seed: u64) -> OwnerData {
        let mut prg = Prg::from_seed(seed);
        let keep = (fraction * u64::MAX as f64) as u64;
        let values = (0..self.owners())
            .map(|_| {
                (0..added)
                    .map(|_| {
                        let pk = prg.range(1, 200_001);
                        if prg.next_u64() <= keep {
                            pk
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        OwnerData { values }
    }

    /// Append a delta's cells after the current domain.
    pub fn extend(&mut self, delta: &OwnerData) {
        for (col, d) in self.values.iter_mut().zip(&delta.values) {
            col.extend_from_slice(d);
        }
    }

    /// Number of owners.
    pub fn owners(&self) -> usize {
        self.values.len()
    }

    /// Domain size in cells.
    pub fn domain(&self) -> usize {
        self.values.first().map_or(0, Vec::len)
    }

    /// `driver::Cluster` inputs with set values offset by `start` (0 for the
    /// bootstrap upload, the old domain size for a delta).
    pub fn inputs(&self, start: usize) -> Vec<OwnerInput> {
        self.values
            .iter()
            .map(|col| OwnerInput {
                rows: col
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(|(i, &v)| ((start + i + 1) as u64, vec![v]))
                    .collect(),
            })
            .collect()
    }

    /// Plaintext `(set value, Partkey)` rows per owner, the shape
    /// `prism_baseline::PlainDataset` takes.
    pub fn plain_rows(&self) -> Vec<Vec<(u64, u64)>> {
        self.values
            .iter()
            .map(|col| {
                col.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(|(i, &v)| ((i + 1) as u64, v))
                    .collect()
            })
            .collect()
    }

    fn common(&self, cell: usize) -> bool {
        self.values.iter().all(|col| col[cell] != 0)
    }

    /// Expected answers over the cell window `[start, start + len)`.
    pub fn expected(&self, start: usize, len: usize) -> Expected {
        let mut e = Expected {
            sums: vec![0; len],
            counts: vec![0; len],
            maxima: vec![0; len],
            common: Vec::new(),
            union: 0,
        };
        for i in 0..len {
            let cell = start + i;
            if self.values.iter().any(|col| col[cell] != 0) {
                e.union += 1;
            }
            if self.common(cell) {
                e.common.push(i);
                e.sums[i] = self.values.iter().map(|col| col[cell]).sum();
                e.counts[i] = self.owners() as u64;
                e.maxima[i] = self.values.iter().map(|col| col[cell]).max().unwrap_or(0);
            }
        }
        e
    }
}

/// Plaintext answers over one window (cell indices window-relative).
#[derive(Debug, Clone)]
pub struct Expected {
    /// PSI sum per cell (0 outside the intersection).
    pub sums: Vec<u64>,
    /// Tuple count per cell (0 outside the intersection).
    pub counts: Vec<u64>,
    /// Largest Partkey per common cell (0 elsewhere).
    pub maxima: Vec<u64>,
    /// Common cells, ascending.
    pub common: Vec<usize>,
    /// |PSU|.
    pub union: usize,
}

impl Expected {
    /// Check a `sum(0), avg(0), count_tuples()` batch result.
    pub fn check_batch(&self, got: &[AggResult]) -> Result<(), String> {
        let avg: Vec<AvgCell> = prism_protocol::average::cells_from(&self.sums, &self.counts);
        let want = [
            AggResult::Sums(self.sums.clone()),
            AggResult::Avg(avg),
            AggResult::Counts(self.counts.clone()),
        ];
        if got.len() != want.len() {
            return Err(format!("batch returned {} results, want 3", got.len()));
        }
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            if g != w {
                return Err(format!(
                    "batch result {k} differs from the plaintext answer"
                ));
            }
        }
        Ok(())
    }

    /// Check a PSI membership result (common cell indices).
    pub fn check_common(&self, got: &[usize]) -> Result<(), String> {
        if got != self.common.as_slice() {
            return Err(format!(
                "PSI found {} common cells, want {}",
                got.len(),
                self.common.len()
            ));
        }
        Ok(())
    }

    /// Check a cardinality.
    pub fn check_size(&self, what: &str, got: usize, want: usize) -> Result<(), String> {
        if got != want {
            return Err(format!("{what} = {got}, want {want}"));
        }
        Ok(())
    }

    /// Check a PSI max result: one cell per common cell, the right max,
    /// and a credited holder that really holds it.
    pub fn check_max(&self, data: &OwnerData, got: &[MaxCell]) -> Result<(), String> {
        if got.len() != self.common.len() {
            return Err(format!(
                "max covered {} cells, want {}",
                got.len(),
                self.common.len()
            ));
        }
        for (cell, &want_cell) in got.iter().zip(&self.common) {
            let holds = data
                .values
                .get(cell.holder)
                .is_some_and(|col| col[want_cell] == cell.max);
            if cell.cell != want_cell || cell.max != self.maxima[want_cell] || !holds {
                return Err(format!("max wrong at cell {}", cell.cell));
            }
        }
        Ok(())
    }
}
