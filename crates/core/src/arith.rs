//! Modular arithmetic over `u64` operands.
//!
//! Every PRISM protocol reduces to a handful of modular operations executed
//! billions of times per query, so these primitives are written to stay in
//! registers: multiplication widens through `u128`, exponentiation is a
//! square-and-multiply ladder, and primality is a deterministic Miller–Rabin
//! variant that is exact for all `u64` inputs.

/// Modular addition: `(a + b) mod n`.
///
/// `a` and `b` need not be reduced; the sum is computed in `u128` so the
/// operation never overflows.
#[inline]
pub fn add_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((a as u128 + b as u128) % n as u128) as u64
}

/// Modular subtraction: `(a - b) mod n`, always in `[0, n)`.
#[inline]
pub fn sub_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    let a = a % n;
    let b = b % n;
    if a >= b {
        a - b
    } else {
        n - (b - a)
    }
}

/// Modular multiplication: `(a * b) mod n` via `u128` widening.
#[inline]
pub fn mul_mod(a: u64, b: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((a as u128 * b as u128) % n as u128) as u64
}

/// Modular exponentiation: `base^exp mod n` by square-and-multiply.
///
/// Returns 0 when `n == 1` (the only residue mod 1).
pub fn pow_mod(mut base: u64, mut exp: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, n);
        }
        base = mul_mod(base, base, n);
        exp >>= 1;
    }
    acc
}

/// Greatest common divisor (binary-free Euclid; inputs are arbitrary).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Extended Euclid on signed 128-bit intermediates.
/// Returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn ext_gcd(a: u64, b: u64) -> (u64, i128, i128) {
    let (mut old_r, mut r) = (a as i128, b as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    (old_r as u64, old_s, old_t)
}

/// Modular inverse of `a` mod `n`, if `gcd(a, n) == 1`.
pub fn inv_mod(a: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let (g, x, _) = ext_gcd(a % n, n);
    if g != 1 {
        return None;
    }
    let n_i = n as i128;
    Some((((x % n_i) + n_i) % n_i) as u64)
}

/// The primes below 200, precomputed once as a const table.
///
/// `is_prime` trial-divides by a prefix of these before Miller–Rabin, and
/// callers that need small primes (tests, parameter searches) read the table
/// instead of re-sieving by trial division on every call.
pub const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Deterministic Miller–Rabin primality test, exact for every `u64`.
///
/// Uses the well-known 12-witness base set that is provably sufficient for
/// all integers below 3,317,044,064,679,887,385,961,981 (> 2^64).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue 'witness;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `>= n` (panics only if the search exceeds `u64::MAX`,
/// which cannot happen for the parameter ranges PRISM uses).
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n & 1 == 0 {
        n += 1;
    }
    loop {
        if is_prime(n) {
            return n;
        }
        n = n.checked_add(2).expect("prime search overflowed u64");
    }
}

/// The Mersenne prime `2^61 - 1`, PRISM's Shamir field modulus.
///
/// Chosen because products of two reduced residues fit in `u128`, sums
/// over 50 owners × 20M tuples of realistic column values stay far below
/// it, and `2^61 ≡ 1 (mod p)` turns every reduction into shifts and adds
/// (see [`m61`]).
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Arithmetic in the Shamir field `F_p`, `p = 2^61 − 1`, without division.
///
/// Because `2^61 ≡ 1 (mod p)`, a value splits into 61-bit chunks whose sum
/// is congruent to it: `x = lo + 2^61·hi ≡ lo + hi`. A `u128` product
/// needs one split into three chunks plus one fold and one conditional
/// subtract, where the generic [`mul_mod`] calls a 128-bit division per
/// operation. Every function accepts *any* operand — an unreduced share
/// or `u64::MAX` from a malicious party included — and returns the
/// canonical residue in `[0, p)`, so results are bit-identical to
/// [`add_mod`]/[`mul_mod`] at [`MERSENNE_61`] (the parity tests pin this).
pub mod m61 {
    use super::MERSENNE_61 as P;

    /// `x mod 2^61 + x div 2^61`: congruent to `x`, at most `p + 7`.
    #[inline(always)]
    fn fold(x: u64) -> u64 {
        (x & P) + (x >> 61)
    }

    /// Canonical residue of a value below `2p`.
    #[inline(always)]
    fn canon(x: u64) -> u64 {
        if x >= P {
            x - P
        } else {
            x
        }
    }

    /// `x mod p` for any `u128`.
    #[inline]
    pub fn reduce(x: u128) -> u64 {
        // Three 61-bit chunks: each of the low two is at most p and the top
        // one (bits 122..128) at most 63, so their sum fits in 63 bits and
        // one fold leaves at most p + 2.
        let lo = x as u64 & P;
        let mid = (x >> 61) as u64 & P;
        let hi = (x >> 122) as u64;
        canon(fold(lo + mid + hi))
    }

    /// `(a · b) mod p` for any `a`, `b`.
    #[inline]
    pub fn mul(a: u64, b: u64) -> u64 {
        reduce(a as u128 * b as u128)
    }

    /// `(a + b) mod p` for any `a`, `b`.
    #[inline]
    pub fn add(a: u64, b: u64) -> u64 {
        // Each folded operand is at most p + 7, so the sum stays below
        // 2^63 and one more fold leaves at most p + 2.
        canon(fold(fold(a) + fold(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_mod_wraps() {
        assert_eq!(add_mod(3, 4, 5), 2);
        assert_eq!(add_mod(u64::MAX, u64::MAX, u64::MAX), 0);
        assert_eq!(add_mod(0, 0, 1), 0);
    }

    #[test]
    fn sub_mod_never_underflows() {
        assert_eq!(sub_mod(3, 4, 5), 4);
        assert_eq!(sub_mod(4, 3, 5), 1);
        assert_eq!(sub_mod(0, 1, 7), 6);
        assert_eq!(sub_mod(10, 10, 7), 0);
    }

    #[test]
    fn mul_mod_widens() {
        assert_eq!(mul_mod(u64::MAX, u64::MAX, MERSENNE_61), {
            let m = u64::MAX as u128;
            ((m * m) % MERSENNE_61 as u128) as u64
        });
    }

    #[test]
    fn pow_mod_matches_naive() {
        for base in [0u64, 1, 2, 3, 7, 10, 227] {
            for exp in 0u64..20 {
                let naive = (0..exp).fold(1u64, |acc, _| mul_mod(acc, base, 1_000_003));
                assert_eq!(pow_mod(base, exp, 1_000_003), naive, "{base}^{exp}");
            }
        }
    }

    #[test]
    fn pow_mod_modulus_one() {
        assert_eq!(pow_mod(5, 3, 1), 0);
    }

    #[test]
    fn fermat_little_theorem_on_known_primes() {
        for p in [5u64, 11, 113, 227, 5003, MERSENNE_61] {
            for a in [2u64, 3, 10, 1234567] {
                if a % p != 0 {
                    assert_eq!(pow_mod(a, p - 1, p), 1, "a={a} p={p}");
                }
            }
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
    }

    #[test]
    fn inv_mod_roundtrip() {
        for n in [5u64, 113, 227, MERSENNE_61] {
            for a in 1..50u64 {
                if gcd(a, n) == 1 {
                    let inv = inv_mod(a, n).unwrap();
                    assert_eq!(mul_mod(a, inv, n), 1, "a={a} n={n}");
                }
            }
        }
        assert_eq!(inv_mod(6, 12), None);
        assert_eq!(inv_mod(4, 0), None);
    }

    #[test]
    fn is_prime_small_exhaustive() {
        for n in 0..200u64 {
            assert_eq!(is_prime(n), SMALL_PRIMES.contains(&n), "n={n}");
        }
    }

    #[test]
    fn small_primes_table_is_complete_and_sorted() {
        // The table must match an independent O(n²) trial-division sieve —
        // computed once here in a test, never on a library call path.
        let sieved: Vec<u64> = (2..200).filter(|&n| (2..n).all(|d| n % d != 0)).collect();
        assert_eq!(SMALL_PRIMES.to_vec(), sieved);
        assert!(SMALL_PRIMES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn is_prime_known_large() {
        assert!(is_prime(MERSENNE_61));
        assert!(is_prime(2_147_483_647)); // 2^31 - 1
        assert!(!is_prime((1u64 << 61) - 2));
        assert!(!is_prime(u64::MAX)); // 3 * 5 * 17 * ...
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(3), 3);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(100), 101);
        assert_eq!(next_prime(5_000_000), 5_000_011);
    }

    #[test]
    fn paper_parameters_are_valid() {
        // §8: η = 227, δ = 113. Group theory requirement: δ | η − 1.
        assert!(is_prime(227) && is_prime(113));
        assert_eq!((227 - 1) % 113, 0);
        // Example 6.3.1 uses η = 5003.
        assert!(is_prime(5003));
    }

    /// Operands where a shift-and-add reduction can go wrong: around 0, p,
    /// 2p, the chunk boundaries 2^61/2^62/2^63, and the top of `u64`.
    const EDGES: [u64; 16] = [
        0,
        1,
        2,
        MERSENNE_61 - 1,
        MERSENNE_61,
        MERSENNE_61 + 1,
        2 * MERSENNE_61 - 1,
        2 * MERSENNE_61,
        2 * MERSENNE_61 + 1,
        1 << 62,
        1 << 63,
        (1 << 63) - 1,
        8 * MERSENNE_61,
        8 * MERSENNE_61 + 6,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Half edge operands, half uniform `u64`s.
    fn edge_or_any() -> impl Strategy<Value = u64> {
        (0..2 * EDGES.len(), any::<u64>()).prop_map(|(i, r)| EDGES.get(i).copied().unwrap_or(r))
    }

    #[test]
    fn m61_matches_u128_rem_on_every_edge_pair() {
        for &a in &EDGES {
            for &b in &EDGES {
                assert_eq!(m61::mul(a, b), mul_mod(a, b, MERSENNE_61), "{a} * {b}");
                assert_eq!(m61::add(a, b), add_mod(a, b, MERSENNE_61), "{a} + {b}");
                let wide = ((a as u128) << 64) | b as u128;
                assert_eq!(m61::reduce(wide), (wide % MERSENNE_61 as u128) as u64);
            }
        }
        for x in [
            0u128,
            MERSENNE_61 as u128,
            1 << 122,
            (1 << 122) - 1,
            u128::MAX,
        ] {
            assert_eq!(m61::reduce(x), (x % MERSENNE_61 as u128) as u64, "{x}");
        }
    }

    proptest! {
        #[test]
        fn prop_m61_reduce_matches_u128_rem(x: u128, a in edge_or_any(), b in edge_or_any()) {
            let p = MERSENNE_61 as u128;
            prop_assert_eq!(m61::reduce(x), (x % p) as u64);
            let product = a as u128 * b as u128;
            prop_assert_eq!(m61::reduce(product), (product % p) as u64);
        }

        #[test]
        fn prop_m61_mul_add_match_reference(a in edge_or_any(), b in edge_or_any()) {
            prop_assert_eq!(m61::mul(a, b), mul_mod(a, b, MERSENNE_61));
            prop_assert_eq!(m61::add(a, b), add_mod(a, b, MERSENNE_61));
        }

        #[test]
        fn prop_sub_then_add_roundtrips(a in 0u64..u64::MAX, b in 0u64..u64::MAX, n in 2u64..u64::MAX) {
            let d = sub_mod(a, b, n);
            prop_assert_eq!(add_mod(d, b, n), a % n);
        }

        #[test]
        fn prop_mul_commutes(a: u64, b: u64, n in 1u64..u64::MAX) {
            prop_assert_eq!(mul_mod(a, b, n), mul_mod(b, a, n));
        }

        #[test]
        fn prop_pow_adds_exponents(base: u64, e1 in 0u64..1000, e2 in 0u64..1000, n in 2u64..u64::MAX) {
            let lhs = pow_mod(base, e1 + e2, n);
            let rhs = mul_mod(pow_mod(base, e1, n), pow_mod(base, e2, n), n);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_inverse_is_inverse(a in 1u64..u64::MAX, n in 2u64..u64::MAX) {
            if gcd(a % n, n) == 1 && a % n != 0 {
                let inv = inv_mod(a, n).unwrap();
                prop_assert_eq!(mul_mod(a, inv, n), 1);
            }
        }
    }
}
