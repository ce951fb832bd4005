//! # hummingbird-crypto
//!
//! From-scratch cryptographic substrate for the Hummingbird reproduction.
//! No external crypto crates are available in the offline build environment,
//! so every primitive the paper relies on is implemented and tested against
//! official vectors here:
//!
//! * [`aes`] — AES-128 (FIPS-197), the paper's PRF instantiation (§7.1).
//! * [`cmac`] — AES-CMAC (RFC 4493), the variable-length PRF/MAC.
//! * [`sha256`] / [`hmac`] — SHA-256 and HMAC-SHA-256 (ledger digests, KDF).
//! * [`sig`] — Schnorr signatures + DH over a 127-bit Schnorr group
//!   (demo-grade PKI substitute; see ARCHITECTURE.md, "Schnorr-group
//!   substitution").
//! * [`sealed`] — ECIES-style sealed boxes for reservation delivery (§4.2).
//! * [`flyover`] — the Hummingbird derivations: `A_K` (Eq. 2), the 6-byte
//!   per-packet flyover MAC (Eq. 3/7a) and the aggregate MAC (Eq. 6).

// `deny` rather than `forbid`: the sanctioned exceptions are the AES-NI
// backend in [`aes`] and the SHA-NI backend in [`sha256`], whose
// intrinsics modules opt back in with a scoped `#[allow(unsafe_code)]`
// and `deny(unsafe_op_in_unsafe_fn)`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod flyover;
pub mod hmac;
pub mod sealed;
pub mod sha256;
pub mod sig;

pub use aes::{active_backend, ni_available, AesBackend};
pub use flyover::{
    aggregate_mac, flyover_tags_batch, flyover_tags_batch_with, AuthKey, AuthKeyCache,
    BurstKeyResolver, FlyoverMacInput, ResInfo, SecretValue, Tag, BW_ENC_MAX, RES_ID_MAX, TAG_LEN,
};
