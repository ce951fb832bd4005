//! HMAC-SHA-256 (RFC 2104), validated against RFC 4231 vectors.
//!
//! Used as a KDF and by the sealed-box construction in [`crate::sealed`].

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// An HMAC-SHA-256 computation keyed once: both hash states have already
/// absorbed their ipad/opad block, so a clone starts a new message under
/// the same key for two compressions less.
#[derive(Clone)]
pub(crate) struct Hmac {
    inner: Sha256,
    outer: Sha256,
}

impl Hmac {
    /// Keys a computation with `key` (any length).
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ pad));
            h
        };
        Hmac { inner: keyed(0x36), outer: keyed(0x5c) }
    }

    /// Absorbs the next part of the message.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Computes HMAC-SHA-256 over `msg` with `key` (any length).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut h = Hmac::new(key);
    h.update(msg);
    h.finalize()
}

/// Simple HKDF-like expansion: fills `out` with 32-byte blocks
/// `T(i) = HMAC(key, T(i-1) ∥ info ∥ i)`, all under one key schedule.
pub fn kdf_expand(key: &[u8], info: &[u8], out: &mut [u8]) {
    let keyed = Hmac::new(key);
    let mut counter = 1u8;
    let mut block = [0u8; 32];
    let mut prev_len = 0; // T(0) is empty
    for chunk in out.chunks_mut(32) {
        let mut h = keyed.clone();
        h.update(&block[..prev_len]);
        h.update(info);
        h.update(&[counter]);
        block = h.finalize();
        prev_len = block.len();
        chunk.copy_from_slice(&block[..chunk.len()]);
        counter = counter.wrapping_add(1);
    }
}

/// Constant-time byte-slice equality (length must match).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_vec(),
            hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_vec(),
            hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            out.to_vec(),
            hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            out.to_vec(),
            hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let out = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            out.to_vec(),
            hex("82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b")
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the HMAC \
                    algorithm.";
        // Streamed in uneven parts: the key schedule must not care.
        let mut h = Hmac::new(&key);
        for part in msg.chunks(37) {
            h.update(part);
        }
        let want = hex("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
        assert_eq!(h.finalize().to_vec(), want);
        assert_eq!(hmac_sha256(&key, msg).to_vec(), want);
    }

    /// Golden vectors computed on the commit before the key schedule was
    /// shared across rounds (one full HMAC per round, `Vec`-built input).
    #[test]
    fn kdf_expand_golden() {
        let mut okm = [0u8; 48];
        kdf_expand(b"shared secret", b"hummingbird-sealed-box", &mut okm);
        assert_eq!(
            okm.to_vec(),
            hex("bb1e6bb5647939c918f3ab99fe181849bf51289dff40ffe8e21b56a0f85e5e1d\
                 2f93081664d1d81535ae5a4d77b3b974")
        );
        // Long key (hashed first), three rounds, partial last block.
        let mut okm = [0u8; 80];
        kdf_expand(&[0xaa; 100], b"ctx", &mut okm);
        assert_eq!(
            okm.to_vec(),
            hex("745f0ba630b4c01b64206359504dc5952711588fa66ff406ff9c9e248e0d69da\
                 4b4b86efa657633fb2031615a1951df46a218439aa1afe90a2150abe21d13708\
                 b6cbd282e520ca955ef274af4a510a0a")
        );
    }

    #[test]
    fn kdf_expand_fills_requested_length() {
        let mut out = [0u8; 80];
        kdf_expand(b"secret", b"context", &mut out);
        assert!(out.iter().any(|&b| b != 0));
        // Different info yields different output.
        let mut out2 = [0u8; 80];
        kdf_expand(b"secret", b"other", &mut out2);
        assert_ne!(out, out2);
    }

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
    }
}
