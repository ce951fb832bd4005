//! # hummingbird-baselines
//!
//! The prior systems the paper positions Hummingbird against (§2), made
//! executable, and the table that lines them up:
//!
//! * `family` — [`EngineFamily`], the one table every consumer
//!   (simulator, testbed, bench harness, tests) reads: name, priority
//!   class, shard steering, engine constructor and per-hop sender
//!   credential for Hummingbird, Helia, DRKey and EPIC.
//! * `engine` — the Helia and DRKey engine families; `epic` — the
//!   EPIC L1-style path-validation family (chained hop authenticators
//!   over DRKey-derived per-source keys, strict freshness, replay
//!   suppression, no reservations), the heavyweight end of the
//!   comparison. Each is a [`hummingbird_dataplane::Family`]: an instance
//!   of the one batched border-router pipeline the Hummingbird router
//!   runs, deriving every packet's key on the fly through its DRKey
//!   chain, with no key state.
//! * [`helia`] — the Helia-style fixed-slot grant service (Wyss et al.,
//!   CCS 2022): fixed time slots, AS-computed bandwidth shares, no
//!   ahead-of-time reservations, per-source-AS authorization via DRKey,
//!   no atomic path guarantees.
//! * `drkey` — the DRKey key-derivation hierarchy Helia (and Colibri)
//!   depend on and Hummingbird eliminates.
//!
//! `paper --claim sec2` in `hummingbird-bench` runs Hummingbird and the
//! Helia-style service side by side on the dimensions the paper's §2
//! claims.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod drkey;
mod engine;
mod epic;
mod family;
pub mod helia;
#[cfg(test)]
mod testutil;
pub use engine::{DrKey, DrKeyDatapath, Helia, HeliaDatapath};
pub use epic::{Epic, EpicDatapath};
pub use family::EngineFamily;
pub use helia::{slot_of, HeliaService, SLOT_SECS};
