//! # hummingbird-wire
//!
//! Wire formats for the Hummingbird SCION path type (paper Appendix A),
//! implemented in the smoltcp style: owned `Repr`-like structs with
//! symmetric `parse`/`emit`, strict validation, and no `unsafe`.
//!
//! Contents:
//! * [`common`] — SCION common and address headers.
//! * [`meta`] — the Hummingbird path meta header (Fig. 7) with the new
//!   `BaseTimestamp` / `MillisTimestamp` / `Counter` fields.
//! * [`hopfield`] — info fields (Fig. 8), hop fields (Fig. 9) and flyover
//!   hop fields (Fig. 10).
//! * [`path`] — the complete path header: segment bookkeeping, offset
//!   arithmetic (Eq. 5), pointer advancement and path reversal (App. A.8).
//! * [`packet`] — full packets plus a builder.
//! * [`bwcls`] — the 10-bit bandwidth float codec (App. A.4).
//! * [`scion_mac`] — standard SCION hop-field MACs and SegID chaining.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]
// Packet bytes decide what this crate sees: no panicking shortcuts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bwcls;
pub mod common;
mod error;
pub mod hopfield;
pub mod meta;
pub mod packet;
pub mod path;
pub mod scion_mac;
mod scion_path;
pub mod view;

pub use common::{AddressHeader, CommonHeader, IsdAs, PATH_TYPE_HUMMINGBIRD};
pub use error::{Result, WireError};
pub use hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
pub use meta::PathMetaHdr;
pub use packet::{Packet, PacketBuilder};
pub use path::{HummingbirdPath, PathField};
pub use scion_mac::{update_seg_id, HopMacInput, HopMacKey};
pub use scion_path::{ScionPath, ScionPathMeta};
pub use view::PacketView;
