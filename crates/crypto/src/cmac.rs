//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! Hummingbird's `PRF` (Eq. 2 and Eq. 3 of the paper) must be a secure PRF
//! whose output is usable as a symmetric key / MAC. AES-CMAC over AES-128 is
//! the standard choice for variable-length inputs; for inputs that fit in one
//! block the paper's DPDK implementation uses a single AES invocation, which
//! CMAC degenerates to (one XOR + one block encryption).
//!
//! Validated against the RFC 4493 test vectors.

use crate::aes::{Aes128, BLOCK_SIZE};

const RB: u8 = 0x87;

/// AES-CMAC instance with precomputed subkeys `K1`, `K2`.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; BLOCK_SIZE],
    k2: [u8; BLOCK_SIZE],
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Cmac { .. }")
    }
}

fn dbl(block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    let mut out = [0u8; BLOCK_SIZE];
    let mut carry = 0u8;
    for i in (0..BLOCK_SIZE).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry == 1 {
        out[BLOCK_SIZE - 1] ^= RB;
    }
    out
}

impl Cmac {
    /// Creates a CMAC instance from a raw 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::from_cipher(Aes128::new(key))
    }

    /// Creates a CMAC instance from an already-expanded cipher.
    pub(crate) fn from_cipher(cipher: Aes128) -> Self {
        let l = cipher.encrypt(&[0u8; BLOCK_SIZE]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { cipher, k1, k2 }
    }

    /// Computes the 16-byte CMAC tag over `msg`.
    ///
    /// Messages that fit one block — the hop-field MAC's common case —
    /// take a fast path of exactly one XOR and one block encryption
    /// (what the paper's §5.4 / DPDK implementation does for its
    /// single-block PRF inputs): CMAC degenerates to `E(M ⊕ K1)` for a
    /// complete block and `E(pad(M) ⊕ K2)` otherwise.
    pub fn mac(&self, msg: &[u8]) -> [u8; BLOCK_SIZE] {
        if msg.len() <= BLOCK_SIZE {
            let mut x = [0u8; BLOCK_SIZE];
            if msg.len() == BLOCK_SIZE {
                for (b, (m, k)) in x.iter_mut().zip(msg.iter().zip(self.k1.iter())) {
                    *b = m ^ k;
                }
            } else {
                x[..msg.len()].copy_from_slice(msg);
                x[msg.len()] = 0x80;
                for (b, k) in x.iter_mut().zip(self.k2.iter()) {
                    *b ^= k;
                }
            }
            self.cipher.encrypt_block(&mut x);
            return x;
        }

        // General path: more than one block (the fast path above handled
        // empty and single-block messages).
        let n_blocks = msg.len().div_ceil(BLOCK_SIZE);
        let (full_blocks, last_complete) = (n_blocks - 1, msg.len().is_multiple_of(BLOCK_SIZE));

        let mut x = [0u8; BLOCK_SIZE];
        for i in 0..full_blocks {
            for j in 0..BLOCK_SIZE {
                x[j] ^= msg[i * BLOCK_SIZE + j];
            }
            self.cipher.encrypt_block(&mut x);
        }

        // Final block: either M_n ^ K1 (complete) or padded(M_n) ^ K2.
        let mut last = [0u8; BLOCK_SIZE];
        if last_complete {
            last.copy_from_slice(&msg[full_blocks * BLOCK_SIZE..]);
            for (b, k) in last.iter_mut().zip(self.k1.iter()) {
                *b ^= k;
            }
        } else {
            let rem = &msg[full_blocks * BLOCK_SIZE..];
            last[..rem.len()].copy_from_slice(rem);
            last[rem.len()] = 0x80;
            for (b, k) in last.iter_mut().zip(self.k2.iter()) {
                *b ^= k;
            }
        }
        for j in 0..BLOCK_SIZE {
            x[j] ^= last[j];
        }
        self.cipher.encrypt_block(&mut x);
        x
    }

    /// The CMAC of each one-block message in `blocks`, in place:
    /// `E(M ⊕ K1)` per block, as [`mac`](Cmac::mac) computes it, through
    /// `Aes128::encrypt_blocks` so several blocks are in flight.
    pub fn mac_blocks(&self, blocks: &mut [[u8; BLOCK_SIZE]]) {
        for block in blocks.iter_mut() {
            for (b, k) in block.iter_mut().zip(&self.k1) {
                *b ^= k;
            }
        }
        self.cipher.encrypt_blocks(blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap()).collect()
    }

    fn rfc4493_key() -> [u8; 16] {
        let mut k = [0u8; 16];
        k.copy_from_slice(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
        k
    }

    #[test]
    fn rfc4493_subkeys() {
        let cmac = Cmac::new(&rfc4493_key());
        assert_eq!(cmac.k1.to_vec(), hex("fbeed618357133667c85e08f7236a8de"));
        assert_eq!(cmac.k2.to_vec(), hex("f7ddac306ae266ccf90bc11ee46d513b"));
    }

    #[test]
    fn rfc4493_example_1_empty() {
        let cmac = Cmac::new(&rfc4493_key());
        assert_eq!(cmac.mac(b"").to_vec(), hex("bb1d6929e95937287fa37d129b756746"));
    }

    #[test]
    fn rfc4493_example_2_16_bytes() {
        let cmac = Cmac::new(&rfc4493_key());
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        assert_eq!(cmac.mac(&msg).to_vec(), hex("070a16b46b4d4144f79bdd9dd04a287c"));
    }

    #[test]
    fn rfc4493_example_3_40_bytes() {
        let cmac = Cmac::new(&rfc4493_key());
        let msg = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411");
        assert_eq!(cmac.mac(&msg).to_vec(), hex("dfa66747de9ae63030ca32611497c827"));
    }

    #[test]
    fn rfc4493_example_4_64_bytes() {
        let cmac = Cmac::new(&rfc4493_key());
        let msg = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710");
        assert_eq!(cmac.mac(&msg).to_vec(), hex("51f0bebf7e3b9d92fc49741779363cfe"));
    }

    /// RFC 4493 §2.4 as literally as possible, without the single-block
    /// fast path — the oracle for `mac`'s two code paths.
    fn reference_cmac(cmac: &Cmac, msg: &[u8]) -> [u8; BLOCK_SIZE] {
        let n = msg.len().div_ceil(BLOCK_SIZE).max(1);
        let complete = !msg.is_empty() && msg.len().is_multiple_of(BLOCK_SIZE);
        let mut last = [0u8; BLOCK_SIZE];
        let rem = &msg[(n - 1) * BLOCK_SIZE..];
        last[..rem.len()].copy_from_slice(rem);
        if !complete {
            last[rem.len()] = 0x80;
        }
        let subkey = if complete { &cmac.k1 } else { &cmac.k2 };
        for (b, k) in last.iter_mut().zip(subkey.iter()) {
            *b ^= k;
        }
        let mut x = [0u8; BLOCK_SIZE];
        for i in 0..n - 1 {
            for j in 0..BLOCK_SIZE {
                x[j] ^= msg[i * BLOCK_SIZE + j];
            }
            cmac.cipher.encrypt_block(&mut x);
        }
        for j in 0..BLOCK_SIZE {
            x[j] ^= last[j];
        }
        cmac.cipher.encrypt_block(&mut x);
        x
    }

    #[test]
    fn fast_path_matches_reference_at_every_boundary_length() {
        let cmac = Cmac::new(&rfc4493_key());
        let msg: Vec<u8> = (0..48).map(|i| i as u8 * 3).collect();
        for len in 0..=48 {
            assert_eq!(
                cmac.mac(&msg[..len]),
                reference_cmac(&cmac, &msg[..len]),
                "length {len} diverged"
            );
        }
    }

    #[test]
    fn mac_blocks_matches_single_block_macs() {
        let cmac = Cmac::new(&rfc4493_key());
        let mut blocks: Vec<[u8; BLOCK_SIZE]> =
            (0..19).map(|i| [i as u8 * 7; BLOCK_SIZE]).collect();
        blocks[0].copy_from_slice(&hex("6bc1bee22e409f96e93d7e117393172a"));
        let expected: Vec<[u8; BLOCK_SIZE]> = blocks.iter().map(|b| cmac.mac(b)).collect();
        cmac.mac_blocks(&mut blocks);
        assert_eq!(blocks, expected);
        assert_eq!(blocks[0].to_vec(), hex("070a16b46b4d4144f79bdd9dd04a287c"), "RFC 4493 ex. 2");
    }
}
