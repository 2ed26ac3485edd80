//! Shamir's secret sharing over `F_p` (§3.1) with the degree bookkeeping
//! PRISM's aggregation round needs.
//!
//! PSI-Sum (§6.1) multiplies two degree-1 sharings pointwise (data × result
//! indicator), producing a degree-2 sharing that three servers' evaluations
//! can reconstruct by Lagrange interpolation at 0. The share type carries
//! its evaluation point so interpolation never mis-pairs shares. The field
//! is fixed at the Mersenne prime `p = 2^61 − 1`, whose reductions are
//! shifts and adds ([`crate::arith::m61`]); every operation accepts
//! unreduced operands and returns canonical residues.

use crate::arith::{inv_mod, m61, sub_mod, MERSENNE_61};
use crate::prg::Prg;
use serde::{Deserialize, Serialize};

/// [`Prg::below`]'s rejection zone for the field modulus, computed once.
const COEFF_ZONE: u64 = Prg::rejection_zone(MERSENNE_61);

/// A Shamir share: the evaluation `f(x)` of the sharing polynomial at a
/// non-zero point `x`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShamirShare {
    /// Evaluation point (server index, 1-based; never 0).
    pub x: u64,
    /// `f(x) mod p`.
    pub y: u64,
}

/// Sharing context over the field `F_p`, `p = 2^61 − 1` ([`MERSENNE_61`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ShamirCtx {
    /// Polynomial degree `c'` (threshold − 1). PRISM uses degree 1.
    pub degree: usize,
}

impl Default for ShamirCtx {
    fn default() -> Self {
        ShamirCtx { degree: 1 }
    }
}

impl ShamirCtx {
    /// Construct a context; `degree ≥ 1`.
    pub fn new(degree: usize) -> Self {
        assert!(degree >= 1, "degree must be at least 1");
        ShamirCtx { degree }
    }

    /// A uniform random polynomial coefficient in `[0, p)`.
    #[inline]
    fn coeff(prg: &mut Prg) -> u64 {
        prg.below_within(MERSENNE_61, COEFF_ZONE)
    }

    /// Split `secret` into `count` shares at evaluation points `1..=count`.
    ///
    /// Requires `count > degree` (otherwise the secret would be
    /// unreconstructable even with all shares).
    pub fn share(&self, secret: u64, count: usize, prg: &mut Prg) -> Vec<ShamirShare> {
        assert!(
            count > self.degree,
            "need more shares ({count}) than the degree ({})",
            self.degree
        );
        // f(x) = secret + a₁x + … + a_d x^d with random aᵢ.
        let mut coeffs = Vec::with_capacity(self.degree + 1);
        coeffs.push(m61::reduce(secret as u128));
        for _ in 0..self.degree {
            coeffs.push(Self::coeff(prg));
        }
        (1..=count as u64)
            .map(|x| ShamirShare {
                x,
                y: Self::eval_poly(&coeffs, x),
            })
            .collect()
    }

    /// Horner evaluation at `x` of a non-empty coefficient vector whose
    /// top coefficient is reduced.
    #[inline]
    fn eval_poly(coeffs: &[u64], x: u64) -> u64 {
        let (&top, rest) = coeffs.split_last().expect("non-empty polynomial");
        rest.iter()
            .rev()
            .fold(top, |acc, &c| m61::add(m61::mul(acc, x), c))
    }

    /// Lagrange interpolation at 0 from an arbitrary set of shares with
    /// distinct evaluation points. The caller must supply at least
    /// `deg(f) + 1` shares of the (possibly product-raised) polynomial.
    pub fn reconstruct(&self, shares: &[ShamirShare]) -> u64 {
        assert!(!shares.is_empty(), "cannot interpolate zero shares");
        for (i, si) in shares.iter().enumerate() {
            for sj in &shares[..i] {
                assert_ne!(si.x, sj.x, "duplicate evaluation point {}", si.x);
            }
        }
        let xs: Vec<u64> = shares.iter().map(|s| s.x).collect();
        shares.iter().enumerate().fold(0u64, |secret, (i, si)| {
            m61::add(secret, m61::mul(si.y, lagrange_weight(&xs, i)))
        })
    }

    /// Homomorphic addition of two shares at the same point.
    #[inline]
    pub fn add_shares(&self, a: ShamirShare, b: ShamirShare) -> ShamirShare {
        assert_eq!(a.x, b.x, "cannot add shares at different points");
        ShamirShare {
            x: a.x,
            y: m61::add(a.y, b.y),
        }
    }

    /// Pointwise product of two shares — the degree of the underlying
    /// polynomial doubles (§3.2: "that increases the degree of the
    /// polynomial to two").
    #[inline]
    pub fn mul_shares(&self, a: ShamirShare, b: ShamirShare) -> ShamirShare {
        assert_eq!(a.x, b.x, "cannot multiply shares at different points");
        ShamirShare {
            x: a.x,
            y: m61::mul(a.y, b.y),
        }
    }

    /// Multiply a share by a public scalar.
    #[inline]
    pub fn scale_share(&self, a: ShamirShare, k: u64) -> ShamirShare {
        ShamirShare {
            x: a.x,
            y: m61::mul(a.y, k),
        }
    }

    /// Bulk share of a vector: returns `count` parallel vectors of raw `y`
    /// values (the x is implied by the server index, saving 8 bytes/cell on
    /// the wire and in storage).
    ///
    /// One coefficient buffer is reused across all secrets, so the loop
    /// performs no per-cell allocation; the PRG draw order is identical to
    /// calling [`ShamirCtx::share`] per secret.
    pub fn share_vector(&self, secrets: &[u64], count: usize, prg: &mut Prg) -> Vec<Vec<u64>> {
        assert!(
            count > self.degree,
            "need more shares ({count}) than the degree ({})",
            self.degree
        );
        let mut out: Vec<Vec<u64>> = (0..count).map(|_| vec![0u64; secrets.len()]).collect();
        let mut coeffs = vec![0u64; self.degree + 1];
        for (i, &s) in secrets.iter().enumerate() {
            coeffs[0] = m61::reduce(s as u128);
            for c in coeffs.iter_mut().skip(1) {
                *c = Self::coeff(prg);
            }
            for (k, col) in out.iter_mut().enumerate() {
                col[i] = Self::eval_poly(&coeffs, (k + 1) as u64);
            }
        }
        out
    }

    /// Lagrange coefficients at 0 for evaluation points `1..=k` — the fixed
    /// weights [`ShamirCtx::reconstruct_raw`] applies. Computing them once
    /// per query (instead of re-deriving a field inverse per cell per share)
    /// is what makes the flat [`ShamirCtx::reconstruct_raw_with`] path fast.
    pub fn lagrange_at_zero(&self, k: usize) -> Vec<u64> {
        assert!(k >= 1, "need at least one evaluation point");
        let xs: Vec<u64> = (1..=k as u64).collect();
        (0..k).map(|i| lagrange_weight(&xs, i)).collect()
    }

    /// Flat reconstruction from raw per-server values `ys[k]` (points `k+1`)
    /// using precomputed [`ShamirCtx::lagrange_at_zero`] weights: a single
    /// multiply-accumulate pass, no allocation, no inversions. Hot-path-only
    /// API — results are bit-identical to [`ShamirCtx::reconstruct_raw`].
    /// The weights must be reduced field elements, as
    /// [`ShamirCtx::lagrange_at_zero`] returns them; the `y` values may be
    /// any `u64`.
    #[inline]
    pub fn reconstruct_raw_with(&self, ys: &[u64], lambda: &[u64]) -> u64 {
        assert_eq!(ys.len(), lambda.len(), "weights must match share count");
        // A `u64` times a reduced weight is below 2^125, so eight products
        // fit one u128 accumulator: one reduction per eight shares.
        ys.chunks(8)
            .zip(lambda.chunks(8))
            .fold(0u64, |secret, (ys, ls)| {
                let dot = ys.iter().zip(ls).fold(0u128, |acc, (&y, &l)| {
                    assert!(l < MERSENNE_61, "Lagrange weight {l} is not reduced");
                    acc + y as u128 * l as u128
                });
                m61::add(secret, m61::reduce(dot))
            })
    }

    /// Reconstruct from raw per-server values `ys[k]` sampled at
    /// points `k+1`.
    pub fn reconstruct_raw(&self, ys: &[u64]) -> u64 {
        let shares: Vec<ShamirShare> = ys
            .iter()
            .enumerate()
            .map(|(k, &y)| ShamirShare {
                x: (k + 1) as u64,
                y,
            })
            .collect();
        self.reconstruct(&shares)
    }
}

/// The Lagrange weight at 0 of point `xs[i]` among the distinct points
/// `xs`: `λᵢ = Π_{j≠i} xⱼ / (xⱼ − xᵢ)` in `F_p`.
fn lagrange_weight(xs: &[u64], i: usize) -> u64 {
    let p = MERSENNE_61;
    let mut num = 1u64;
    let mut den = 1u64;
    for (j, &xj) in xs.iter().enumerate() {
        if i == j {
            continue;
        }
        num = m61::mul(num, xj);
        den = m61::mul(den, sub_mod(xj, xs[i], p));
    }
    m61::mul(num, inv_mod(den, p).expect("field inverse"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{add_mod, mul_mod};
    use proptest::prelude::*;

    fn ctx() -> ShamirCtx {
        ShamirCtx::default()
    }

    /// Degree-1 sharing at points `1..=3` on the generic `u128 %`
    /// arithmetic — the reference the field kernels must match bit for
    /// bit, PRG draw order included.
    fn reference_share_vector(secrets: &[u64], prg: &mut Prg) -> Vec<Vec<u64>> {
        let p = MERSENNE_61;
        let mut out = vec![Vec::new(); 3];
        for &s in secrets {
            let a = prg.below(p);
            for (k, col) in out.iter_mut().enumerate() {
                col.push(add_mod(mul_mod(a, k as u64 + 1, p), s % p, p));
            }
        }
        out
    }

    /// Weighted reconstruction on the generic `u128 %` arithmetic.
    fn reference_reconstruct(ys: &[u64], lambda: &[u64]) -> u64 {
        let p = MERSENNE_61;
        ys.iter()
            .zip(lambda)
            .fold(0, |acc, (&y, &l)| add_mod(acc, mul_mod(y, l, p), p))
    }

    /// Half the values just below/at/above p or near `u64::MAX` (what a
    /// malicious party may send), half uniform `u64`s.
    fn unreduced() -> impl Strategy<Value = u64> {
        const EDGES: [u64; 6] = [
            0,
            MERSENNE_61 - 1,
            MERSENNE_61,
            MERSENNE_61 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        (0..2 * EDGES.len(), any::<u64>()).prop_map(|(i, r)| EDGES.get(i).copied().unwrap_or(r))
    }

    #[test]
    fn roundtrip_degree_one_three_servers() {
        let mut prg = Prg::from_seed(1);
        let c = ctx();
        for secret in [0u64, 1, 42, MERSENNE_61 - 1] {
            let shares = c.share(secret, 3, &mut prg);
            assert_eq!(c.reconstruct(&shares), secret);
            // Any 2 of the 3 suffice for degree 1.
            assert_eq!(c.reconstruct(&shares[..2]), secret);
            assert_eq!(c.reconstruct(&shares[1..]), secret);
            assert_eq!(c.reconstruct(&[shares[0], shares[2]]), secret);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let mut prg = Prg::from_seed(2);
        let c = ctx();
        let a = c.share(100, 3, &mut prg);
        let b = c.share(23, 3, &mut prg);
        let sum: Vec<ShamirShare> = (0..3).map(|i| c.add_shares(a[i], b[i])).collect();
        assert_eq!(c.reconstruct(&sum), 123);
    }

    #[test]
    fn product_needs_three_shares() {
        // Degree 1 × degree 1 = degree 2 ⇒ 3 shares reconstruct, 2 don't
        // (in general).
        let mut prg = Prg::from_seed(3);
        let c = ctx();
        let a = c.share(6, 3, &mut prg);
        let b = c.share(7, 3, &mut prg);
        let prod: Vec<ShamirShare> = (0..3).map(|i| c.mul_shares(a[i], b[i])).collect();
        assert_eq!(c.reconstruct(&prod), 42);
        // Reconstruction from only 2 points of a degree-2 polynomial is a
        // different (wrong) value except on a measure-zero set; assert the
        // 3-share answer is authoritative by checking a disagreement exists
        // for at least one of several trials.
        let mut any_mismatch = false;
        for seed in 0..8 {
            let mut prg = Prg::from_seed(1000 + seed);
            let a = c.share(6, 3, &mut prg);
            let b = c.share(7, 3, &mut prg);
            let prod: Vec<ShamirShare> = (0..3).map(|i| c.mul_shares(a[i], b[i])).collect();
            if c.reconstruct(&prod[..2]) != 42 {
                any_mismatch = true;
            }
        }
        assert!(
            any_mismatch,
            "two shares should not reliably open a product"
        );
    }

    #[test]
    fn psi_sum_inner_product_shape() {
        // The exact Equation 11 computation: Σⱼ S(xⱼ)·S(z) over 3 servers.
        let mut prg = Prg::from_seed(4);
        let c = ctx();
        let data = [300u64, 100, 700]; // per-owner sums for one cell
        let z = 1u64; // cell is in the intersection
        let z_shares = c.share(z, 3, &mut prg);
        let data_shares: Vec<Vec<ShamirShare>> =
            data.iter().map(|&d| c.share(d, 3, &mut prg)).collect();
        // Server k computes Σⱼ data_shares[j][k] * z_shares[k].
        let server_out: Vec<ShamirShare> = (0..3)
            .map(|k| {
                let mut acc = ShamirShare {
                    x: (k + 1) as u64,
                    y: 0,
                };
                for ds in &data_shares {
                    acc = c.add_shares(acc, c.mul_shares(ds[k], z_shares[k]));
                }
                acc
            })
            .collect();
        assert_eq!(c.reconstruct(&server_out), 1100);
    }

    #[test]
    fn zero_indicator_zeroes_the_sum() {
        let mut prg = Prg::from_seed(5);
        let c = ctx();
        let z_shares = c.share(0, 3, &mut prg);
        let d_shares = c.share(987654, 3, &mut prg);
        let out: Vec<ShamirShare> = (0..3)
            .map(|k| c.mul_shares(d_shares[k], z_shares[k]))
            .collect();
        assert_eq!(c.reconstruct(&out), 0);
    }

    #[test]
    fn scale_share_is_public_scalar_mul() {
        let mut prg = Prg::from_seed(6);
        let c = ctx();
        let shares = c.share(21, 3, &mut prg);
        let scaled: Vec<ShamirShare> = shares.iter().map(|&s| c.scale_share(s, 2)).collect();
        assert_eq!(c.reconstruct(&scaled), 42);
    }

    #[test]
    fn share_vector_matches_scalar_path() {
        let mut prg = Prg::from_seed(7);
        let c = ctx();
        let secrets: Vec<u64> = (0..100).collect();
        let vecs = c.share_vector(&secrets, 3, &mut prg);
        assert_eq!(vecs.len(), 3);
        for i in 0..secrets.len() {
            let ys: Vec<u64> = (0..3).map(|k| vecs[k][i]).collect();
            assert_eq!(c.reconstruct_raw(&ys), secrets[i]);
        }
    }

    #[test]
    fn lagrange_weights_match_reconstruct() {
        let c = ctx();
        let mut prg = Prg::from_seed(77);
        for k in 2usize..6 {
            let lambda = c.lagrange_at_zero(k);
            assert_eq!(lambda.len(), k);
            for secret in [0u64, 1, 42, MERSENNE_61 - 1] {
                let shares = c.share(secret, k, &mut prg);
                let ys: Vec<u64> = shares.iter().map(|s| s.y).collect();
                assert_eq!(c.reconstruct_raw_with(&ys, &lambda), c.reconstruct_raw(&ys));
                assert_eq!(c.reconstruct_raw_with(&ys, &lambda), secret);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need more shares")]
    fn too_few_shares_for_degree_panics() {
        let mut prg = Prg::from_seed(8);
        ShamirCtx::new(2).share(5, 2, &mut prg);
    }

    #[test]
    #[should_panic(expected = "duplicate evaluation point")]
    fn duplicate_points_panic() {
        let c = ctx();
        let s = ShamirShare { x: 1, y: 10 };
        c.reconstruct(&[s, s]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(secret in 0u64..MERSENNE_61, seed: u64, count in 2usize..6) {
            let mut prg = Prg::from_seed(seed);
            let c = ctx();
            let shares = c.share(secret, count, &mut prg);
            prop_assert_eq!(c.reconstruct(&shares), secret);
        }

        #[test]
        fn prop_product_of_sums(a in 0u64..1_000_000, b in 0u64..1_000_000, seed: u64) {
            let mut prg = Prg::from_seed(seed);
            let c = ctx();
            let sa = c.share(a, 3, &mut prg);
            let sb = c.share(b, 3, &mut prg);
            let prod: Vec<ShamirShare> = (0..3).map(|i| c.mul_shares(sa[i], sb[i])).collect();
            prop_assert_eq!(c.reconstruct(&prod), mul_mod(a, b, MERSENNE_61));
        }

        #[test]
        fn prop_flat_reconstruct_parity(ys in proptest::collection::vec(unreduced(), 2..20)) {
            // The flat weighted path must agree bit-for-bit with the share-
            // struct path and the `u128 %` reference on arbitrary (even
            // non-polynomial, unreduced) y values.
            let c = ctx();
            let lambda = c.lagrange_at_zero(ys.len());
            let flat = c.reconstruct_raw_with(&ys, &lambda);
            prop_assert_eq!(flat, c.reconstruct_raw(&ys));
            prop_assert_eq!(flat, reference_reconstruct(&ys, &lambda));
        }

        #[test]
        fn prop_share_vector_matches_u128_reference(seed: u64, secrets in proptest::collection::vec(unreduced(), 0..64)) {
            // Unreduced secrets included: the field kernels must produce the
            // generic arithmetic's shares and consume the same PRG stream.
            let mut prg = Prg::from_seed(seed);
            let mut reference_prg = Prg::from_seed(seed);
            let vecs = ctx().share_vector(&secrets, 3, &mut prg);
            prop_assert_eq!(vecs, reference_share_vector(&secrets, &mut reference_prg));
            prop_assert_eq!(prg.next_u64(), reference_prg.next_u64());
        }

        #[test]
        fn prop_share_ops_match_u128_reference(a in unreduced(), b in unreduced(), k in unreduced()) {
            let c = ctx();
            let (sa, sb) = (ShamirShare { x: 2, y: a }, ShamirShare { x: 2, y: b });
            prop_assert_eq!(c.add_shares(sa, sb).y, add_mod(a, b, MERSENNE_61));
            prop_assert_eq!(c.mul_shares(sa, sb).y, mul_mod(a, b, MERSENNE_61));
            prop_assert_eq!(c.scale_share(sa, k).y, mul_mod(a, k % MERSENNE_61, MERSENNE_61));
        }

        #[test]
        fn prop_share_vector_matches_scalar_share(seed: u64, secrets in proptest::collection::vec(unreduced(), 0..64)) {
            // Buffer-reusing bulk sharing must consume the identical PRG
            // stream as per-secret `share` calls.
            let c = ctx();
            let mut bulk_prg = Prg::from_seed(seed);
            let mut scalar_prg = Prg::from_seed(seed);
            let vecs = c.share_vector(&secrets, 3, &mut bulk_prg);
            for (i, &s) in secrets.iter().enumerate() {
                let shares = c.share(s, 3, &mut scalar_prg);
                for k in 0..3 {
                    prop_assert_eq!(vecs[k][i], shares[k].y);
                }
            }
            prop_assert_eq!(bulk_prg.next_u64(), scalar_prg.next_u64());
        }

        #[test]
        fn prop_single_share_uniform_coverage(secret in unreduced(), seed: u64) {
            // Any share value is possible for any secret: sharing with
            // different randomness moves the share around the field (two
            // draws collide with probability 1/p), and every share is a
            // reduced field element.
            let c = ctx();
            let a = c.share(secret, 2, &mut Prg::from_seed(seed));
            let b = c.share(secret, 2, &mut Prg::from_seed(seed ^ 1));
            prop_assert!(a.iter().chain(&b).all(|s| s.y < MERSENNE_61));
            prop_assert_ne!(a[0].y, b[0].y);
        }
    }
}
