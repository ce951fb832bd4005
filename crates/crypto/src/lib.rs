//! # hummingbird-crypto
//!
//! From-scratch cryptographic substrate for the Hummingbird reproduction.
//! No external crypto crates are available in the offline build environment,
//! so every primitive the paper relies on is implemented and tested against
//! official vectors here:
//!
//! * [`aes`] — AES-128 (FIPS-197), the paper's PRF instantiation (§7.1).
//! * [`cmac`] — AES-CMAC (RFC 4493), the variable-length PRF/MAC.
//! * [`sha256`] / `hmac` — SHA-256 and HMAC-SHA-256 (ledger digests, KDF).
//! * [`sig`] — Schnorr signatures + DH over a 127-bit Schnorr group
//!   (demo-grade PKI substitute; see ARCHITECTURE.md, "Schnorr-group
//!   substitution").
//! * [`sealed`] — ECIES-style sealed boxes for reservation delivery (§4.2).
//! * `flyover` — the Hummingbird derivations: `A_K` (Eq. 2), the 6-byte
//!   per-packet flyover MAC (Eq. 3/7a) and the aggregate MAC (Eq. 6), and
//!   the fused pass that derives a packet's key through a chain of AES
//!   levels — `A_K`, or a baseline's DRKey chain — and tags the packet
//!   without storing a key schedule.
//! * `digest_hash` — hash tables keyed by digests and PRF outputs, and
//!   the argument for which keys may skip SipHash.
//! * [`prefetch`] — a non-blocking cache hint for per-burst state that
//!   sits outside the crypto (the border router's policer slots).

// `deny` rather than `forbid`: the sanctioned exceptions are the AES-NI
// backend in [`aes`] and the SHA-NI backend in [`sha256`], whose
// intrinsics modules opt back in with a scoped `#[allow(unsafe_code)]`
// and `deny(unsafe_op_in_unsafe_fn)`, and the cache hint [`prefetch`].
// This crate holds every `std::arch` intrinsic of the workspace; the
// only other `unsafe` is the socket testbed's `sys` module (the UDP
// offload calls `std::net` lacks), and the remaining crates forbid it
// outright.
#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
mod digest_hash;
mod flyover;
mod hmac;
pub mod sealed;
pub mod sha256;
pub mod sig;

pub use aes::{active_backend, AesBackend};
pub use digest_hash::{DigestHasher, DigestMap, DigestSet};
pub use flyover::{
    aggregate_mac, chained_flyover_tag, chained_flyover_tags, flyover_tags_batch_with, AuthKey,
    AuthKeyCache, FlyoverMacInput, ResInfo, SecretValue, Tag, BW_ENC_MAX, RES_ID_MAX, TAG_LEN,
};

/// Asks the CPU to start loading the cache line that holds `value` into
/// every cache level, and returns at once: a hint, not a load, so a burst
/// can issue one per packet and let the misses overlap each other and the
/// work in between. It never faults, writes or changes a result, whatever
/// later happens to `value`'s memory. On x86_64 it is `PREFETCHT0` (SSE,
/// part of the baseline, so no runtime detection); elsewhere a no-op.
#[inline(always)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // one SSE hint on a live reference
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is enabled on every x86_64 target, and a prefetch
        // only hints the cache: it neither reads into a register, faults,
        // nor writes, and `value` is a valid reference besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}
