//! Hot-path microbench: each per-row kernel against its baseline.
//!
//! Every kernel has two bit-identical implementations. For the first three
//! the baseline is the retained Vec-returning API (the pre-flat-buffer code
//! path, kept as the conformance reference) and the flat side is the
//! `_into` variant that writes into a caller-owned slice with a
//! caller-cached table. For the two Shamir field kernels the baseline is a
//! loop on the generic `u128 %` arithmetic. This experiment times both
//! sides of each pair on the same inputs:
//!
//! * **psi_round** — the PSI round-1 server step (Equation 3):
//!   [`prism_protocol::psi::server_psi_round`] (rebuilds the power table
//!   and allocates the output per call) vs
//!   [`prism_protocol::psi::server_psi_round_into`] with a cached table
//!   and a reused buffer.
//! * **shamir_reconstruct** — degree-1 Shamir reconstruction of a `b`-cell
//!   column: per-cell [`prism_core::ShamirCtx::reconstruct_raw`] (two
//!   field inversions per cell per share) vs
//!   [`prism_core::ShamirCtx::lagrange_at_zero`] computed once plus the
//!   flat multiply-accumulate
//!   [`prism_core::ShamirCtx::reconstruct_raw_with`].
//! * **psu_blinding** — the PSU blinding stream (Equation 18):
//!   [`prism_protocol::psu::blinding_for`] (fresh vector per query) vs
//!   [`prism_core::Prg::blinding_into`] refilling one reused buffer.
//! * **shamir_share** — the owner's degree-1 sharing of a `b`-cell column
//!   (the z vector and every outsourced payload): a loop on the generic
//!   `u128 %` [`prism_core::arith::add_mod`]/[`prism_core::arith::mul_mod`]
//!   and [`prism_core::Prg::below`] vs [`prism_core::ShamirCtx::share_vector`]
//!   on the shift-and-add field kernels ([`prism_core::arith::m61`]).
//! * **sum_round** — the Equation-11 server step: the same generic
//!   arithmetic loop vs [`prism_protocol::sum::server_sum_round_into`].
//!
//! The field pairs assert bit-identical outputs before timing them.
//!
//! When the caller passes an allocation counter (the `exp_harness` binary
//! installs a counting global allocator), each row also records how many
//! heap allocations one warm call performs — the flat PSI row must report
//! zero, which is the same property `crates/protocol/tests/alloc_count.rs`
//! pins as a regression test.
//!
//! `write_json` emits the `BENCH_hotpath.json` artifact `just bench-smoke`
//! and CI publish, recording both sides of every pair so the speedup claim
//! is always measured against the retained baseline code, not remembered
//! from an older run.

use crate::report::{print_table, secs};
use prism_core::arith::{add_mod, mul_mod};
use prism_core::{Prg, MERSENNE_61};
use prism_protocol::params::{Initiator, ServerParams, Setup, SystemConfig, SHAMIR_SERVERS};
use prism_protocol::tables::share_payload;
use prism_protocol::{psi, psu, sum};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One (kernel, variant) measurement.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Kernel name, one of [`KERNELS`].
    pub kernel: &'static str,
    /// `baseline` (retained Vec API or generic-arithmetic loop) or `flat`
    /// (in-place variant or field kernel).
    pub variant: &'static str,
    /// Cells processed per call (`b`).
    pub cells: usize,
    /// Best-of-reps time for one full-column call.
    pub time: Duration,
    /// Cells per second at the best-of-reps time.
    pub cells_per_sec: f64,
    /// Heap allocations one warm call performed (when the harness
    /// installed a counting allocator).
    pub allocs: Option<u64>,
}

/// An allocation counter: returns a monotonically increasing count of
/// heap allocations so far (the `exp_harness` binary wires in its
/// counting global allocator here; library tests pass `None`).
pub type AllocCount = Option<fn() -> u64>;

fn setup(cells: usize, owners: usize, seed: u64) -> Setup {
    Initiator::new(SystemConfig::new(owners, cells).with_seed(seed))
        .setup()
        .expect("setup")
}

/// Time `f` once per rep (after one untimed warm-up call) and keep the
/// fastest rep. Each call must process the whole column.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// Allocation delta of one warm call of `f`.
fn allocs_of<F: FnMut()>(counter: AllocCount, mut f: F) -> Option<u64> {
    let counter = counter?;
    f(); // warm
    let before = counter();
    f();
    Some(counter() - before)
}

fn row(
    kernel: &'static str,
    variant: &'static str,
    cells: usize,
    time: Duration,
    allocs: Option<u64>,
) -> HotpathRow {
    HotpathRow {
        kernel,
        variant,
        cells,
        time,
        cells_per_sec: cells as f64 / time.as_secs_f64().max(1e-12),
        allocs,
    }
}

/// Uniform owner share columns in `[0, δ)` — the shape the additive
/// servers hold after upload.
fn owner_shares(sp: &ServerParams, owners: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut prg = Prg::from_seed(seed ^ 0x5EED_0CE1);
    (0..owners)
        .map(|_| (0..sp.b).map(|_| prg.below(sp.delta)).collect())
        .collect()
}

/// Degree-1 sharing at points `1..=k` on the generic `u128 %` arithmetic,
/// drawing coefficients like [`prism_core::ShamirCtx::share_vector`].
fn generic_share_vector(secrets: &[u64], k: usize, prg: &mut Prg) -> Vec<Vec<u64>> {
    let p = MERSENNE_61;
    let mut out: Vec<Vec<u64>> = (0..k).map(|_| Vec::with_capacity(secrets.len())).collect();
    for &s in secrets {
        let a = prg.below(p);
        for (x, col) in out.iter_mut().enumerate() {
            col.push(add_mod(mul_mod(a, x as u64 + 1, p), s % p, p));
        }
    }
    out
}

/// The Equation-11 server step on the generic `u128 %` arithmetic.
fn generic_sum_round(payload: &[&[u64]], z: &[u64], out: &mut [u64]) {
    let p = MERSENNE_61;
    out.fill(0);
    for shares in payload {
        for (a, &s) in out.iter_mut().zip(*shares) {
            *a = add_mod(*a, s, p);
        }
    }
    for (v, &zi) in out.iter_mut().zip(z) {
        *v = mul_mod(*v, zi, p);
    }
}

/// Run every kernel pair at `cells` domain cells and `owners` owners;
/// best-of-`reps` per row.
pub fn run(
    cells: usize,
    owners: usize,
    reps: usize,
    seed: u64,
    alloc_count: AllocCount,
) -> Vec<HotpathRow> {
    let setup = setup(cells, owners, seed);
    let sp = &setup.servers[0];
    let field = &setup.owner.field;
    let mut rows = Vec::with_capacity(2 * KERNELS.len());

    // --- psi_round: Vec API (table rebuilt per call) vs cached-table into.
    {
        let shares = owner_shares(sp, owners, seed);
        let refs: Vec<&[u64]> = shares.iter().map(|s| s.as_slice()).collect();
        let baseline = || {
            black_box(psi::server_psi_round(&refs, sp, 1).expect("psi baseline"));
        };
        let table = sp.power_table();
        let mut out = vec![0u64; sp.b];
        let mut flat = || {
            psi::server_psi_round_into(&refs, sp, &table, &mut out, 1).expect("psi flat");
            black_box(out[0]);
        };
        let t = best_of(reps, baseline);
        let a = allocs_of(alloc_count, baseline);
        rows.push(row("psi_round", "baseline", cells, t, a));
        let t = best_of(reps, &mut flat);
        let a = allocs_of(alloc_count, &mut flat);
        rows.push(row("psi_round", "flat", cells, t, a));
    }

    // --- shamir_reconstruct: per-cell inversions vs precomputed weights.
    {
        let mut prg = Prg::from_seed(seed ^ 0x5EED_0CE2);
        let secrets: Vec<u64> = (0..cells).map(|_| prg.below(MERSENNE_61)).collect();
        let cols = field.share_vector(&secrets, SHAMIR_SERVERS, &mut prg);
        let baseline = || {
            let mut acc = 0u64;
            for i in 0..cells {
                acc ^= field.reconstruct_raw(&[cols[0][i], cols[1][i], cols[2][i]]);
            }
            black_box(acc);
        };
        let lambda = field.lagrange_at_zero(SHAMIR_SERVERS);
        let flat = || {
            let mut acc = 0u64;
            for i in 0..cells {
                acc ^= field.reconstruct_raw_with(&[cols[0][i], cols[1][i], cols[2][i]], &lambda);
            }
            black_box(acc);
        };
        let t = best_of(reps, baseline);
        let a = allocs_of(alloc_count, baseline);
        rows.push(row("shamir_reconstruct", "baseline", cells, t, a));
        let t = best_of(reps, flat);
        let a = allocs_of(alloc_count, flat);
        rows.push(row("shamir_reconstruct", "flat", cells, t, a));
    }

    // --- psu_blinding: fresh vector per query vs one reused buffer.
    {
        let baseline = || {
            black_box(psu::blinding_for(sp)[0]);
        };
        let mut buf = vec![0u64; sp.b];
        let mut flat = || {
            let mut prg = Prg::from_seed(sp.psu_prg_seed);
            prg.blinding_into(&mut buf, sp.delta);
            black_box(buf[0]);
        };
        let t = best_of(reps, baseline);
        let a = allocs_of(alloc_count, baseline);
        rows.push(row("psu_blinding", "baseline", cells, t, a));
        let t = best_of(reps, &mut flat);
        let a = allocs_of(alloc_count, &mut flat);
        rows.push(row("psu_blinding", "flat", cells, t, a));
    }

    // --- shamir_share: generic `u128 %` loop vs the field kernels.
    {
        let mut prg = Prg::from_seed(seed ^ 0x5EED_0CE3);
        let secrets: Vec<u64> = (0..cells).map(|_| prg.next_u64() >> 40).collect();
        let draw_seed = prg.next_u64();
        assert_eq!(
            generic_share_vector(&secrets, SHAMIR_SERVERS, &mut Prg::from_seed(draw_seed)),
            field.share_vector(&secrets, SHAMIR_SERVERS, &mut Prg::from_seed(draw_seed)),
            "shamir_share pair disagrees"
        );
        let baseline = || {
            let mut prg = Prg::from_seed(draw_seed);
            black_box(generic_share_vector(&secrets, SHAMIR_SERVERS, &mut prg));
        };
        let flat = || {
            let mut prg = Prg::from_seed(draw_seed);
            black_box(field.share_vector(&secrets, SHAMIR_SERVERS, &mut prg));
        };
        let t = best_of(reps, baseline);
        let a = allocs_of(alloc_count, baseline);
        rows.push(row("shamir_share", "baseline", cells, t, a));
        let t = best_of(reps, flat);
        let a = allocs_of(alloc_count, flat);
        rows.push(row("shamir_share", "flat", cells, t, a));
    }

    // --- sum_round: generic `u128 %` loop vs the field kernels.
    {
        let mut prg = Prg::from_seed(seed ^ 0x5EED_0CE4);
        let payload: Vec<Vec<u64>> = (0..owners)
            .map(|_| {
                let values: Vec<u64> = (0..cells).map(|_| prg.next_u64() >> 40).collect();
                share_payload(&values, field, &mut prg)
                    .shares
                    .swap_remove(0)
            })
            .collect();
        let refs: Vec<&[u64]> = payload.iter().map(|s| s.as_slice()).collect();
        let z: Vec<u64> = (0..cells).map(|i| (i % 2) as u64).collect();
        let z = share_payload(&z, field, &mut prg).shares.swap_remove(0);
        let mut expect = vec![0u64; cells];
        let mut out = vec![0u64; cells];
        generic_sum_round(&refs, &z, &mut expect);
        sum::server_sum_round_into(&refs, &z, sp, &mut out, 1).expect("sum flat");
        assert_eq!(expect, out, "sum_round pair disagrees");
        let mut baseline = || {
            generic_sum_round(&refs, &z, &mut expect);
            black_box(expect[0]);
        };
        let mut flat = || {
            sum::server_sum_round_into(&refs, &z, sp, &mut out, 1).expect("sum flat");
            black_box(out[0]);
        };
        let t = best_of(reps, &mut baseline);
        let a = allocs_of(alloc_count, &mut baseline);
        rows.push(row("sum_round", "baseline", cells, t, a));
        let t = best_of(reps, &mut flat);
        let a = allocs_of(alloc_count, &mut flat);
        rows.push(row("sum_round", "flat", cells, t, a));
    }

    rows
}

/// Baseline-over-flat speedup for one kernel (1.0 if either side is
/// missing).
pub fn speedup(rows: &[HotpathRow], kernel: &str) -> f64 {
    let pick = |variant: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.variant == variant)
    };
    match (pick("baseline"), pick("flat")) {
        (Some(b), Some(f)) => b.time.as_secs_f64() / f.time.as_secs_f64().max(1e-12),
        _ => 1.0,
    }
}

/// The kernel names, in report order.
pub const KERNELS: [&str; 5] = [
    "psi_round",
    "shamir_reconstruct",
    "psu_blinding",
    "shamir_share",
    "sum_round",
];

/// Print the pairs, one row per (kernel, variant), plus per-kernel
/// speedups.
pub fn print(cells: usize, owners: usize, rows: &[HotpathRow]) {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.variant.to_string(),
                secs(r.time),
                format!("{:.1}M", r.cells_per_sec / 1e6),
                r.allocs.map_or_else(|| "-".into(), |a| a.to_string()),
            ]
        })
        .collect();
    print_table(
        &format!("Hot-path kernels — {cells} cells, {owners} owners, 1 thread"),
        &["Kernel", "Variant", "Time", "Cells/s", "Allocs/call"],
        &table_rows,
    );
    for k in KERNELS {
        println!("{k} speedup (flat over baseline): {:.2}x", speedup(rows, k));
    }
}

/// Write the pairs as a small JSON artifact (hand-rolled — the workspace
/// vendors no JSON serializer, and the shape is fixed). Both variants of
/// every kernel are recorded, so the artifact carries its own baseline.
pub fn write_json(
    path: &std::path::Path,
    cells: usize,
    owners: usize,
    rows: &[HotpathRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"hotpath\",\n");
    out.push_str(&format!("  \"cells\": {cells},\n"));
    out.push_str(&format!("  \"owners\": {owners},\n"));
    out.push_str("  \"threads\": 1,\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let allocs = r.allocs.map_or_else(|| "null".into(), |a| a.to_string());
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"seconds\": {:.9}, \"cells_per_sec\": {:.1}, \"allocs_per_call\": {}}}{}\n",
            r.kernel,
            r.variant,
            r.time.as_secs_f64(),
            r.cells_per_sec,
            allocs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let mut max = 1.0f64;
    for k in KERNELS {
        let s = speedup(rows, k);
        max = max.max(s);
        out.push_str(&format!("  \"{k}_speedup\": {s:.3},\n"));
    }
    out.push_str(&format!("  \"max_speedup\": {max:.3}\n"));
    out.push_str("}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_agree_and_report() {
        let rows = run(512, 3, 1, 9, None);
        assert_eq!(rows.len(), 10);
        for k in KERNELS {
            assert_eq!(rows.iter().filter(|r| r.kernel == k).count(), 2);
            assert!(speedup(&rows, k) > 0.0);
        }
        for r in &rows {
            assert!(r.time > Duration::ZERO);
            assert!(r.cells_per_sec > 0.0);
            assert_eq!(r.allocs, None, "no counter installed in lib tests");
        }
        print(512, 3, &rows);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let rows = run(256, 2, 1, 10, None);
        let path = std::env::temp_dir().join("prism_bench_hotpath_test.json");
        write_json(&path, 256, 2, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"experiment\": \"hotpath\""));
        assert!(text.contains("shamir_reconstruct_speedup"));
        assert!(text.contains("max_speedup"));
        assert!(text.contains("\"allocs_per_call\": null"));
        assert!(text.contains("\"kernel\": \"shamir_share\""));
        assert_eq!(text.matches("\"variant\": \"flat\"").count(), 5);
    }
}
