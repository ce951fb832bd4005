//! Sealed-box hybrid encryption for reservation delivery.
//!
//! In the redeem flow (§4.2, steps ❺–❽), the end host includes an ephemeral
//! public key in its redeem request; the issuing AS encrypts
//! `(ResInfo_K, A_K)` under that key before posting it back through the asset
//! contract, so the authentication key never appears in plaintext on chain.
//!
//! Construction (ECIES-style over the demo Schnorr group):
//! `eph = G^r`, `shared = DH(r, recipient)`, keys = KDF(shared),
//! ciphertext = stream-XOR (AES-CTR) and tag = HMAC-SHA-256 over
//! `eph ∥ nonce ∥ ciphertext` (encrypt-then-MAC).
//!
//! The module also provides a [`SecretBox`]: AES-CTR with an AES-CMAC
//! tag (encrypt-then-MAC) under a caller-provided 16-byte key, for flows
//! where sender and recipient *already* share a secret (e.g. reservation
//! renewals, which ratchet a wrapping key off the previous window's
//! `A_K`). All-AES on purpose: the renewal fast path seals one of these
//! per renewal, and AES rides the same hardware path as the data-plane
//! key derivation (sub-microsecond) where SHA-256 costs microseconds.

use crate::aes::Aes128;
use crate::cmac::Cmac;
use crate::hmac::{ct_eq, kdf_expand, Hmac};
use crate::sig::{PublicKey, SecretKey};
use rand::Rng;

/// A sealed (encrypted + authenticated) message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Sender's ephemeral public key.
    pub ephemeral: PublicKey,
    /// Random 16-byte nonce (CTR IV).
    pub nonce: [u8; 16],
    /// AES-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 tag (truncated to 16 bytes).
    pub tag: [u8; 16],
}

/// Errors from opening a sealed box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealError {
    /// The authentication tag did not verify.
    TagMismatch,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::TagMismatch => f.write_str("sealed box authentication tag mismatch"),
        }
    }
}

impl std::error::Error for SealError {}

fn derive_keys(shared: &[u8; 32], eph: &PublicKey) -> ([u8; 16], [u8; 32]) {
    const LABEL: &[u8] = b"hummingbird-sealed-box";
    let mut info = [0u8; LABEL.len() + 16];
    info[..LABEL.len()].copy_from_slice(LABEL);
    info[LABEL.len()..].copy_from_slice(&eph.to_bytes());
    let mut okm = [0u8; 48];
    kdf_expand(shared, &info, &mut okm);
    let mut enc = [0u8; 16];
    enc.copy_from_slice(&okm[..16]);
    let mut mac = [0u8; 32];
    mac.copy_from_slice(&okm[16..48]);
    (enc, mac)
}

fn ctr_xor(key: &[u8; 16], nonce: &[u8; 16], data: &mut [u8]) {
    /// Counter blocks per batch: matches the widest interleave kernel.
    const CHUNK: usize = 8;
    let cipher = Aes128::new(key);
    let mut counter = u128::from_be_bytes(*nonce);
    // Counter blocks are independent, so the keystream goes through the
    // interleaved batch path, CHUNK blocks at a time from a stack
    // buffer — no allocation, any payload size.
    for span in data.chunks_mut(16 * CHUNK) {
        let mut keystream = [[0u8; 16]; CHUNK];
        let blocks = span.len().div_ceil(16);
        for ks in keystream.iter_mut().take(blocks) {
            *ks = counter.to_be_bytes();
            counter = counter.wrapping_add(1);
        }
        cipher.encrypt_blocks(&mut keystream[..blocks]);
        for (chunk, ks) in span.chunks_mut(16).zip(&keystream) {
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// The box's tag: HMAC over `eph ∥ nonce ∥ ciphertext`, truncated.
fn tag(mac_key: &[u8; 32], eph: &PublicKey, nonce: &[u8; 16], ciphertext: &[u8]) -> [u8; 16] {
    let mut h = Hmac::new(mac_key);
    h.update(&eph.to_bytes());
    h.update(nonce);
    h.update(ciphertext);
    let mut tag = [0u8; 16];
    tag.copy_from_slice(&h.finalize()[..16]);
    tag
}

/// Encrypts `plaintext` to `recipient`.
pub fn seal<R: Rng + ?Sized>(recipient: &PublicKey, plaintext: &[u8], rng: &mut R) -> SealedBox {
    let eph_sk = SecretKey::generate(rng);
    let eph = eph_sk.public();
    let shared = eph_sk.dh(recipient);
    let (enc_key, mac_key) = derive_keys(&shared, &eph);
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce);
    let mut ciphertext = plaintext.to_vec();
    ctr_xor(&enc_key, &nonce, &mut ciphertext);
    let tag = tag(&mac_key, &eph, &nonce, &ciphertext);
    SealedBox { ephemeral: eph, nonce, ciphertext, tag }
}

/// Decrypts a sealed box with the recipient's secret key.
pub fn open(recipient: &SecretKey, boxed: &SealedBox) -> Result<Vec<u8>, SealError> {
    let shared = recipient.dh(&boxed.ephemeral);
    let (enc_key, mac_key) = derive_keys(&shared, &boxed.ephemeral);
    let expected = tag(&mac_key, &boxed.ephemeral, &boxed.nonce, &boxed.ciphertext);
    if !ct_eq(&expected, &boxed.tag) {
        return Err(SealError::TagMismatch);
    }
    let mut plaintext = boxed.ciphertext.clone();
    ctr_xor(&enc_key, &boxed.nonce, &mut plaintext);
    Ok(plaintext)
}

/// A symmetric sealed message: AES-CTR ciphertext with an AES-CMAC tag,
/// keyed by a pre-shared 16-byte secret instead of an ephemeral DH.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecretBox {
    /// Random 16-byte nonce (CTR IV).
    pub nonce: [u8; 16],
    /// AES-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// AES-CMAC tag over `nonce ∥ ciphertext`.
    pub tag: [u8; 16],
}

/// Splits the box key into independent encryption and MAC subkeys —
/// CMAC as the PRF in a counter-mode KDF (NIST SP 800-108).
fn derive_symmetric_keys(key: &[u8; 16]) -> ([u8; 16], [u8; 16]) {
    let prf = Cmac::new(key);
    let enc = prf.mac(b"\x01hummingbird-secret-box");
    let mac = prf.mac(b"\x02hummingbird-secret-box");
    (enc, mac)
}

/// Encrypts `plaintext` under a pre-shared 16-byte key
/// (encrypt-then-MAC, tag over `nonce ∥ ciphertext`).
pub fn seal_with_key<R: Rng + ?Sized>(key: &[u8; 16], plaintext: &[u8], rng: &mut R) -> SecretBox {
    let (enc_key, mac_key) = derive_symmetric_keys(key);
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce);
    let mut ciphertext = plaintext.to_vec();
    ctr_xor(&enc_key, &nonce, &mut ciphertext);
    let mut m = Vec::with_capacity(16 + ciphertext.len());
    m.extend_from_slice(&nonce);
    m.extend_from_slice(&ciphertext);
    let tag = Cmac::new(&mac_key).mac(&m);
    SecretBox { nonce, ciphertext, tag }
}

/// Decrypts a [`SecretBox`] with the pre-shared key.
pub fn open_with_key(key: &[u8; 16], boxed: &SecretBox) -> Result<Vec<u8>, SealError> {
    let (enc_key, mac_key) = derive_symmetric_keys(key);
    let mut m = Vec::with_capacity(16 + boxed.ciphertext.len());
    m.extend_from_slice(&boxed.nonce);
    m.extend_from_slice(&boxed.ciphertext);
    let tag = Cmac::new(&mac_key).mac(&m);
    if !ct_eq(&tag, &boxed.tag) {
        return Err(SealError::TagMismatch);
    }
    let mut plaintext = boxed.ciphertext.clone();
    ctr_xor(&enc_key, &boxed.nonce, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secretbox_roundtrip_and_tamper() {
        let mut rng = StdRng::seed_from_u64(16);
        let key = [0x5Au8; 16];
        let boxed = seal_with_key(&key, b"renewed A_K payload", &mut rng);
        assert_eq!(open_with_key(&key, &boxed).unwrap(), b"renewed A_K payload");
        // Wrong key fails.
        assert_eq!(open_with_key(&[0u8; 16], &boxed), Err(SealError::TagMismatch));
        // Tampered ciphertext, nonce, and tag all fail.
        for f in [
            |b: &mut SecretBox| b.ciphertext[0] ^= 1,
            |b: &mut SecretBox| b.nonce[0] ^= 1,
            |b: &mut SecretBox| b.tag[0] ^= 1,
        ] {
            let mut t = boxed.clone();
            f(&mut t);
            assert_eq!(open_with_key(&key, &t), Err(SealError::TagMismatch));
        }
        // Nonces randomize ciphertexts.
        let again = seal_with_key(&key, b"renewed A_K payload", &mut rng);
        assert_ne!(again.ciphertext, boxed.ciphertext);
    }

    /// Golden vector computed on the commit before the arithmetic, SHA-256
    /// and HMAC paths were rebuilt: same draws in the same order, same box.
    #[test]
    fn seal_golden() {
        let sk = SecretKey::from_seed(b"as-64500");
        let msg = b"ResInfo || A_K delivery payload";
        let boxed = seal(&sk.public(), msg, &mut StdRng::seed_from_u64(0x5EA1));
        assert_eq!(boxed.ephemeral, PublicKey(0x2d63f7e87976ad28288f505289b2f756));
        assert_eq!(u128::from_be_bytes(boxed.nonce), 0x58b55c52c9845e4715e28ab343373f41);
        let ciphertext: String = boxed.ciphertext.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(ciphertext, "c2a4997e7fd28ae6f55baabd4a8cea1cd55792f58b2ec70f1e6c66deb6983a");
        assert_eq!(u128::from_be_bytes(boxed.tag), 0xac3603bec942c48fcae4823f0de93285);
        assert_eq!(open(&sk, &boxed).unwrap(), msg);
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let sk = SecretKey::generate(&mut rng);
        let msg = b"ResInfo || A_K delivery payload";
        let boxed = seal(&sk.public(), msg, &mut rng);
        assert_eq!(open(&sk, &boxed).unwrap(), msg);
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&mut rng);
        let other = SecretKey::generate(&mut rng);
        let boxed = seal(&sk.public(), b"secret", &mut rng);
        assert_eq!(open(&other, &boxed), Err(SealError::TagMismatch));
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut rng = StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&mut rng);
        let mut boxed = seal(&sk.public(), b"secret payload", &mut rng);
        boxed.ciphertext[0] ^= 1;
        assert_eq!(open(&sk, &boxed), Err(SealError::TagMismatch));
    }

    #[test]
    fn tampered_nonce_fails() {
        let mut rng = StdRng::seed_from_u64(13);
        let sk = SecretKey::generate(&mut rng);
        let mut boxed = seal(&sk.public(), b"secret payload", &mut rng);
        boxed.nonce[3] ^= 0x80;
        assert_eq!(open(&sk, &boxed), Err(SealError::TagMismatch));
    }

    #[test]
    fn empty_plaintext_ok() {
        let mut rng = StdRng::seed_from_u64(14);
        let sk = SecretKey::generate(&mut rng);
        let boxed = seal(&sk.public(), b"", &mut rng);
        assert_eq!(open(&sk, &boxed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let mut rng = StdRng::seed_from_u64(15);
        let sk = SecretKey::generate(&mut rng);
        let a = seal(&sk.public(), b"same message", &mut rng);
        let b = seal(&sk.public(), b"same message", &mut rng);
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
