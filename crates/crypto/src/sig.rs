//! Schnorr signatures and Diffie-Hellman over a Schnorr group (demo-grade).
//!
//! Hummingbird's control plane assumes a PKI for ASes (RPKI or SCION CP-PKI,
//! §3.2): ASes prove possession of their certificate key during registration
//! with the asset contract, and end hosts provide an ephemeral public key so
//! the AS can encrypt the delivered reservation. No public-key crate is in
//! the approved offline dependency set, so this module implements a small
//! Schnorr group from scratch:
//!
//! * modulus `P` is a 127-bit safe prime (`P = 2Q + 1` with `Q` prime),
//! * the group is the order-`Q` subgroup of quadratic residues mod `P`,
//! * signatures are classic Schnorr (commitment, SHA-256 challenge,
//!   response), and key agreement is plain DH in the subgroup.
//!
//! **Security disclaimer:** a 127-bit discrete-log group offers on the order
//! of 2^40 security against index calculus — fine for exercising the exact
//! protocol flow in a reproduction, *not* for production. ARCHITECTURE.md
//! ("Schnorr-group substitution") records this substitution. The API mirrors
//! what an RPKI-backed implementation would expose, so swapping in real
//! crypto changes no caller.
//!
//! # Arithmetic
//!
//! Every admission bottoms out in four exponentiations mod `P`, so the
//! group arithmetic is division-free. Both moduli are pseudo-Mersenne
//! (`P = 2^126 + 823`, `Q = 2^125 + 411`): a 256-bit product is split at
//! the modulus's top bit and the high part folded back in by the small
//! constant, twice (`Field::reduce`). Operands stay in `[0, M)` between
//! operations, so nothing is reduced on entry. `G^k` is a table walk over
//! `G_COMB` (at most 32 multiplies, no squarings); variable bases (DH,
//! `y^e` in `verify`) take a 4-bit fixed-window ladder (`pow`).

use crate::sha256::Sha256;
use rand::Rng;

/// Safe prime `P = 2Q + 1`, 127 bits: P = 2^126 + 823.
/// Both `P` and `Q` pass the strong-probable-prime check in this module's
/// tests.
pub const P: u128 = Fp::M; // 85070591730234615865843651857942053687
/// Subgroup order `Q = (P - 1) / 2 = 2^125 + 411`.
pub const Q: u128 = Fq::M; // odd prime
/// Generator of the order-`Q` subgroup (a quadratic residue mod `P`).
pub const G: u128 = 4; // 2^2 is always a QR

/// 256-bit product of two `u128`s as `(lo, hi)` limbs.
#[inline]
const fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
    let (b_lo, b_hi) = (b as u64 as u128, b >> 64);
    let ll = a_lo * b_lo;
    let hh = a_hi * b_hi;
    let (mid, mid_carry) = (a_lo * b_hi).overflowing_add(a_hi * b_lo);
    let (lo, lo_carry) = ll.overflowing_add(mid << 64);
    let hi = hh + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
    (lo, hi)
}

/// 256-bit square: three limb products instead of [`mul_wide`]'s four.
#[inline]
const fn sqr_wide(a: u128) -> (u128, u128) {
    let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
    let ll = a_lo * a_lo;
    let lh = a_lo * a_hi;
    let (cross, cross_carry) = lh.overflowing_add(lh);
    let (lo, lo_carry) = ll.overflowing_add(cross << 64);
    let hi = a_hi * a_hi + (cross >> 64) + ((cross_carry as u128) << 64) + lo_carry as u128;
    (lo, hi)
}

/// Arithmetic modulo the pseudo-Mersenne `M = 2^BITS + C` (`BITS < 127`,
/// `C < 2^10`). Every operand and result is in `[0, M)`.
struct Field<const BITS: u32, const C: u128>;

/// The group's field, mod [`P`].
type Fp = Field<126, 823>;
/// The exponent field, mod [`Q`].
type Fq = Field<125, 411>;

impl<const BITS: u32, const C: u128> Field<BITS, C> {
    const M: u128 = (1 << BITS) + C;
    const MASK: u128 = (1 << BITS) - 1;

    /// Reduces `x = hi·2^128 + lo < 2^(128 + BITS)` — any product of two
    /// reduced operands, or any bare `u128` — without dividing. With
    /// `2^BITS ≡ -C`, splitting at bit `BITS` gives `x = H·2^BITS + L ≡
    /// L - C·H`; `C·H` is up to 138 bits, so it is split and folded the
    /// same way, `C·H = T_H·2^BITS + T_L ≡ T_L - C·T_H` with `T_H < 2^13`.
    /// That leaves `L + C·T_H - T_L` in `(-2^BITS, 2^BITS + 2^23)`: one
    /// conditional add and one conditional subtract finish.
    #[inline]
    const fn reduce(lo: u128, hi: u128) -> u128 {
        debug_assert!(hi >> BITS == 0);
        let l = lo & Self::MASK;
        let h = (hi << (128 - BITS)) | (lo >> BITS);
        // t = C·H as (lo, hi); C is tiny, so two limb products do.
        let p0 = (h as u64 as u128) * C;
        let p1 = (h >> 64) * C;
        let (t_lo, carry) = p0.overflowing_add(p1 << 64);
        let t_hi = (p1 >> 64) + carry as u128;
        let t_l = t_lo & Self::MASK;
        let t_h = (t_hi << (128 - BITS)) | (t_lo >> BITS);
        let mut r = l + C * t_h;
        if r < t_l {
            r += Self::M;
        }
        r -= t_l;
        if r >= Self::M {
            r -= Self::M;
        }
        r
    }

    /// `a·b mod M`.
    #[inline]
    const fn mul(a: u128, b: u128) -> u128 {
        debug_assert!(a < Self::M && b < Self::M);
        let (lo, hi) = mul_wide(a, b);
        Self::reduce(lo, hi)
    }

    /// `a² mod M`.
    #[inline]
    const fn sqr(a: u128) -> u128 {
        debug_assert!(a < Self::M);
        let (lo, hi) = sqr_wide(a);
        Self::reduce(lo, hi)
    }
}

/// Window width of both exponentiation paths, in bits.
const WINDOW: usize = 4;
/// Windows in a 128-bit exponent.
const WINDOWS: usize = 128 / WINDOW;

/// Fixed-base comb for [`G`]: `G_COMB[i][j] = G^(j·16^i) mod P`, so `G^k`
/// is the product of one entry per nibble of `k` (8 KiB, built at compile
/// time).
static G_COMB: [[u128; 1 << WINDOW]; WINDOWS] = {
    let mut table = [[1u128; 1 << WINDOW]; WINDOWS];
    let mut base = G; // G^(16^i)
    let mut i = 0;
    while i < WINDOWS {
        let mut j = 1;
        while j < 1 << WINDOW {
            table[i][j] = Fp::mul(table[i][j - 1], base);
            j += 1;
        }
        base = Fp::mul(table[i][(1 << WINDOW) - 1], base);
        i += 1;
    }
    table
};

/// The `i`-th 4-bit window of `exp`.
#[inline]
fn window(exp: u128, i: usize) -> usize {
    (exp >> (WINDOW * i)) as usize & ((1 << WINDOW) - 1)
}

/// `G^exp mod P` from the comb table: one multiply per nonzero nibble.
fn pow_g(exp: u128) -> u128 {
    let mut acc = 1;
    for (i, row) in G_COMB.iter().enumerate() {
        let w = window(exp, i);
        if w != 0 {
            acc = Fp::mul(acc, row[w]);
        }
    }
    acc
}

/// `base^exp mod P` for `base < P`: 4-bit fixed-window ladder, most
/// significant nibble first (four squarings and at most one multiply per
/// nibble, after 14 multiplies for `base^0..base^15`).
fn pow(base: u128, exp: u128) -> u128 {
    let mut powers = [1u128; 1 << WINDOW];
    for j in 1..powers.len() {
        powers[j] = Fp::mul(powers[j - 1], base);
    }
    let top = (128 - exp.leading_zeros() as usize).saturating_sub(1) / WINDOW;
    let mut acc = powers[window(exp, top)];
    for i in (0..top).rev() {
        for _ in 0..WINDOW {
            acc = Fp::sqr(acc);
        }
        let w = window(exp, i);
        if w != 0 {
            acc = Fp::mul(acc, powers[w]);
        }
    }
    acc
}

/// A secret (signing / DH) key: a scalar in `[1, Q)`, with its public key
/// (signing hashes the public key into every challenge).
#[derive(Clone)]
pub struct SecretKey {
    x: u128,
    public: PublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("SecretKey { .. }")
    }
}

/// A public key: group element `G^x mod P`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PublicKey(pub u128);

/// A Schnorr signature `(commitment e, response s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Challenge scalar (hash of commitment and message).
    pub e: u128,
    /// Response scalar.
    pub s: u128,
}

impl SecretKey {
    /// The key for scalar `x` in `[1, Q)`.
    fn from_scalar(x: u128) -> Self {
        SecretKey { x, public: PublicKey(pow_g(x)) }
    }

    /// Samples a fresh secret key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Fq::reduce(rng.gen::<u128>(), 0);
            if x != 0 {
                return Self::from_scalar(x);
            }
        }
    }

    /// Deterministically derives a key from seed material (for tests and
    /// reproducible simulations).
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_scalar(scalar_from_digest(&Sha256::digest(seed)).max(1))
    }

    /// The corresponding public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg` (Schnorr, RFC 8235-style with SHA-256 challenge).
    pub fn sign<R: Rng + ?Sized>(&self, msg: &[u8], rng: &mut R) -> Signature {
        loop {
            let k = 1 + rng.gen::<u128>() % (Q - 1);
            let r = pow_g(k);
            let e = challenge(r, self.public, msg);
            if e == 0 {
                continue;
            }
            // s = k - x*e mod Q
            let xe = Fq::mul(self.x, e);
            let s = if k >= xe { k - xe } else { k + Q - xe };
            return Signature { e, s };
        }
    }

    /// Diffie-Hellman: shared secret with `peer`, hashed to 32 bytes.
    pub fn dh(&self, peer: &PublicKey) -> [u8; 32] {
        // `PublicKey`'s field is public, so `peer` may be out of range.
        let shared = pow(Fp::reduce(peer.0, 0), self.x);
        let mut h = Sha256::new();
        h.update(b"hummingbird-dh");
        h.update(&shared.to_be_bytes());
        h.finalize()
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.e == 0 || sig.e >= Q || sig.s >= Q {
            return false;
        }
        if self.0 <= 1 || self.0 >= P {
            return false;
        }
        // r' = G^s * y^e mod P; valid iff challenge(r', y, msg) == e.
        let r = Fp::mul(pow_g(sig.s), pow(self.0, sig.e));
        challenge(r, *self, msg) == sig.e
    }

    /// Serializes to 16 bytes (big-endian).
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Parses from 16 bytes; rejects out-of-range values.
    pub fn from_bytes(b: &[u8; 16]) -> Option<Self> {
        let v = u128::from_be_bytes(*b);
        if v <= 1 || v >= P {
            None
        } else {
            Some(PublicKey(v))
        }
    }
}

/// The first 16 digest bytes as a scalar mod `Q`.
fn scalar_from_digest(d: &[u8; 32]) -> u128 {
    Fq::reduce(u128::from_be_bytes(d[..16].try_into().expect("16 of 32 bytes")), 0)
}

fn challenge(r: u128, pk: PublicKey, msg: &[u8]) -> u128 {
    let mut h = Sha256::new();
    h.update(b"hummingbird-schnorr");
    h.update(&r.to_be_bytes());
    h.update(&pk.0.to_be_bytes());
    h.update(msg);
    scalar_from_digest(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference `a·b mod m` for any `m < 2^127`: the 256-bit binary long
    /// division the division-free [`Field`] replaced.
    fn mulmod_reference(a: u128, b: u128, m: u128) -> u128 {
        let (lo, hi) = mul_wide(a % m, b % m);
        let mut rem = hi % m;
        for i in (0..128).rev() {
            rem = (rem << 1) % m;
            if (lo >> i) & 1 == 1 {
                rem = (rem + 1) % m;
            }
        }
        rem
    }

    /// Reference `base^exp mod m`: plain square-and-multiply over
    /// [`mulmod_reference`].
    fn powmod_reference(mut base: u128, mut exp: u128, m: u128) -> u128 {
        let mut acc = 1u128 % m;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mulmod_reference(acc, base, m);
            }
            base = mulmod_reference(base, base, m);
            exp >>= 1;
        }
        acc
    }

    /// Miller-Rabin strong-probable-prime check to the first 12 prime
    /// bases. That base set is proven deterministic only below ≈ 3.3·10^24;
    /// for the 127-bit moduli here it is a probabilistic check with error
    /// below 4^-12, used by `group_parameters_are_sound` alone.
    fn is_prime(n: u128) -> bool {
        const BASES: [u128; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        if n < 2 {
            return false;
        }
        for p in BASES {
            if n == p {
                return true;
            }
            if n.is_multiple_of(p) {
                return false;
            }
        }
        let r = (n - 1).trailing_zeros();
        let d = (n - 1) >> r;
        'witness: for a in BASES {
            let mut x = powmod_reference(a, d, n);
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 0..r - 1 {
                x = mulmod_reference(x, x, n);
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Operands where a pseudo-Mersenne fold can go wrong: the ends of the
    /// range and the values straddling the split bit.
    fn edge_operands(m: u128) -> Vec<u128> {
        let split = 1u128 << (127 - m.leading_zeros());
        vec![0, 1, 2, split - 1, split, split + 1, m - 2, m - 1]
    }

    impl<const BITS: u32, const C: u128> Field<BITS, C> {
        /// Asserts `mul` and `sqr` against the long-division reference.
        fn check(a: u128, b: u128) {
            let m = Self::M;
            assert_eq!(Self::mul(a, b), mulmod_reference(a, b, m), "a={a} b={b} m={m}");
            assert_eq!(Self::sqr(a), mulmod_reference(a, a, m), "a={a} m={m}");
        }
    }

    #[test]
    fn group_parameters_are_sound() {
        assert_eq!(P, 85070591730234615865843651857942053687);
        assert!(is_prime(P), "P must be prime");
        assert!(is_prime(Q), "Q must be prime");
        assert_eq!(P, 2 * Q + 1, "P must be a safe prime");
        // G generates the order-Q subgroup: G^Q == 1, G != 1.
        assert_eq!(pow(G, Q), 1);
        assert_eq!(pow_g(Q), 1);
        assert_ne!(G % P, 1);
        // The reference agrees with native arithmetic where that fits.
        for (a, b, m) in [(7u128, 9, 13), (0, 5, 7), (12, 12, 13)] {
            assert_eq!(mulmod_reference(a, b, m), (a * b) % m);
        }
        assert!(is_prime(97) && !is_prime(91) && !is_prime(1));
    }

    #[test]
    fn field_matches_long_division_on_edges() {
        for a in edge_operands(P) {
            for b in edge_operands(P) {
                Fp::check(a, b);
            }
        }
        for a in edge_operands(Q) {
            for b in edge_operands(Q) {
                Fq::check(a, b);
            }
        }
        // Bare 128-bit values reduce like `%`.
        for v in [0, 1, P - 1, P, P + 1, 2 * P, 3 * P + 5, u128::MAX] {
            assert_eq!(Fp::reduce(v, 0), v % P);
            assert_eq!(Fq::reduce(v, 0), v % Q);
        }
    }

    #[test]
    fn comb_table_holds_powers_of_g() {
        for (i, j) in [(0, 1), (0, 15), (1, 1), (7, 9), (31, 15)] {
            let exp = (j as u128) << (4 * i);
            assert_eq!(G_COMB[i][j], powmod_reference(G, exp, P), "G_COMB[{i}][{j}]");
        }
    }

    #[test]
    fn exponentiations_agree_on_edges() {
        let single_nibbles = (0..32).map(|i| 0xBu128 << (4 * i));
        for exp in [0, 1, 2, 15, 16, Q - 1, Q, P - 1, u128::MAX].into_iter().chain(single_nibbles) {
            assert_eq!(pow_g(exp), powmod_reference(G, exp, P), "G^{exp}");
            for base in [0, 1, 2, G, P - 2, P - 1] {
                assert_eq!(pow(base, exp), powmod_reference(base, exp, P), "{base}^{exp}");
            }
        }
        // Fermat: a^(P-1) == 1 mod P for a coprime with P.
        for a in [2u128, 3, 12345, 0xdead_beef] {
            assert_eq!(pow(a, P - 1), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn field_matches_long_division(a in any::<u128>(), b in any::<u128>(), v in any::<u128>()) {
            Fp::check(a % P, b % P);
            Fq::check(a % Q, b % Q);
            prop_assert_eq!(Fp::reduce(v, 0), v % P);
            prop_assert_eq!(Fq::reduce(v, 0), v % Q);
        }

        #[test]
        fn exponentiations_agree(base in any::<u128>(), exp in any::<u128>()) {
            let base = base % P;
            prop_assert_eq!(pow_g(exp), powmod_reference(G, exp, P));
            prop_assert_eq!(pow(base, exp), powmod_reference(base, exp, P));
            prop_assert_eq!(pow(G, exp), pow_g(exp));
        }
    }

    /// Golden vectors computed on the commit before the arithmetic was
    /// rebuilt: keys, signatures and DH outputs are bit-identical.
    #[test]
    fn golden_vectors() {
        let sk = SecretKey::from_seed(b"as-64500");
        assert_eq!(sk.public(), PublicKey(0x17e6d0fc293cf27a893d5cf3e16a4e2d));
        let mut rng = StdRng::seed_from_u64(0x601D);
        let sig = sk.sign(b"register AS 64500", &mut rng);
        assert_eq!(sig.e, 0xbd242b5d5b5130f250452d1585587e0);
        assert_eq!(sig.s, 0x1fedfefdc6c135213f1b6eaa87dabfa5);
        assert!(sk.public().verify(b"register AS 64500", &sig));
        let peer = SecretKey::from_seed(b"as-64501");
        let shared = [
            0x8e, 0x9b, 0xb8, 0xfe, 0xfd, 0x88, 0xfa, 0xf4, 0x4f, 0xca, 0x84, 0xb1, 0x78, 0xf8,
            0xcc, 0xfc, 0x4d, 0xdc, 0xa6, 0xc7, 0xea, 0x69, 0xf0, 0x10, 0x6f, 0x5e, 0x70, 0xd9,
            0xe0, 0x4d, 0xf6, 0xcd,
        ];
        assert_eq!(sk.dh(&peer.public()), shared);
        assert_eq!(peer.dh(&sk.public()), shared);
    }

    #[test]
    fn debug_hides_the_scalar() {
        let sk = SecretKey::from_seed(b"as-64500");
        let shown = format!("{sk:?}");
        assert_eq!(shown, "SecretKey { .. }");
        for digits in [format!("{}", sk.x), format!("{:x}", sk.x)] {
            assert!(!shown.contains(&digits));
        }
    }

    #[test]
    fn dh_reduces_out_of_range_peers() {
        let sk = SecretKey::from_seed(b"x");
        assert_eq!(sk.dh(&PublicKey(P + 9)), sk.dh(&PublicKey(9)));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&mut rng);
        let pk = sk.public();
        let sig = sk.sign(b"register AS 64500", &mut rng);
        assert!(pk.verify(b"register AS 64500", &sig));
        assert!(!pk.verify(b"register AS 64501", &sig));
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let sk1 = SecretKey::generate(&mut rng);
        let sk2 = SecretKey::generate(&mut rng);
        let sig = sk1.sign(b"msg", &mut rng);
        assert!(!sk2.public().verify(b"msg", &sig));
    }

    #[test]
    fn signature_malleability_guards() {
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&mut rng);
        let sig = sk.sign(b"m", &mut rng);
        let pk = sk.public();
        assert!(!pk.verify(b"m", &Signature { e: 0, s: sig.s }));
        assert!(!pk.verify(b"m", &Signature { e: sig.e, s: Q }));
        assert!(!PublicKey(0).verify(b"m", &sig));
        assert!(!PublicKey(P).verify(b"m", &sig));
    }

    #[test]
    fn dh_agreement() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = SecretKey::generate(&mut rng);
        let b = SecretKey::generate(&mut rng);
        assert_eq!(a.dh(&b.public()), b.dh(&a.public()));
        let c = SecretKey::generate(&mut rng);
        assert_ne!(a.dh(&b.public()), a.dh(&c.public()));
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a = SecretKey::from_seed(b"as-64500");
        let b = SecretKey::from_seed(b"as-64500");
        assert_eq!(a.public(), b.public());
        assert_ne!(a.public(), SecretKey::from_seed(b"as-64501").public());
    }

    #[test]
    fn pubkey_serde_roundtrip() {
        let sk = SecretKey::from_seed(b"x");
        let pk = sk.public();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert_eq!(PublicKey::from_bytes(&[0u8; 16]), None);
    }
}
