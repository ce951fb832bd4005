//! # hummingbird-baselines
//!
//! The prior systems the paper positions Hummingbird against (§2), made
//! executable, and the table that lines them up:
//!
//! * [`family`] — [`EngineFamily`], the one table every consumer
//!   (simulator, testbed, bench harness, tests) reads: name, priority
//!   class, shard steering, engine constructor and per-hop sender
//!   credential for Hummingbird, Helia, DRKey and EPIC.
//! * [`engine`] — the Helia and DRKey per-packet
//!   [`hummingbird_dataplane::Datapath`] engines; [`epic`] — the EPIC
//!   L1-style path-validation engine (chained hop authenticators over
//!   DRKey-derived per-source keys, strict freshness, replay
//!   suppression, no reservations), the heavyweight end of the family.
//! * [`helia`] — the Helia-style fixed-slot grant service (Wyss et al.,
//!   CCS 2022): fixed time slots, AS-computed bandwidth shares, no
//!   ahead-of-time reservations, per-source-AS authorization via DRKey,
//!   no atomic path guarantees.
//! * [`drkey`] — the DRKey key-derivation hierarchy Helia (and Colibri)
//!   depend on and Hummingbird eliminates.
//!
//! The `baseline_comparison` binary in `hummingbird-bench` runs the
//! systems side by side on the dimensions the paper's §2 claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drkey;
pub mod engine;
pub mod epic;
pub mod family;
pub mod helia;
#[cfg(test)]
mod testutil;

pub use drkey::DrKeySecret;
pub use engine::{DrKeyDatapath, HeliaDatapath};
pub use epic::{epic_auth_key, EpicDatapath, EpicKeyId};
pub use family::EngineFamily;
pub use helia::{slot_of, HeliaError, HeliaGrant, HeliaService, SLOT_SECS};
