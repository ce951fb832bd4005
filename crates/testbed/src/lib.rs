//! Real-socket UDP testbed: a gateway, a chain of border routers and a
//! sink running as threads that exchange *real UDP datagrams* over
//! loopback — the deployment-shaped counterpart to the in-process
//! benchmarks and the discrete-event `netsim`.
//!
//! Each router node pulls datagrams off its own `UdpSocket`, validates
//! them with [`hummingbird_wire::PacketView::new_checked`], drives them
//! through any [`EngineFamily`](hummingbird_netsim::EngineFamily)
//! datapath behind a [`ShardedRouter`](hummingbird_dataplane::ShardedRouter)
//! (`ChainSpec::shards` engines), and forwards
//! the mutated bytes to the next hop's socket. Links are credit-windowed
//! (`link`) so kernel receive-buffer drops are structurally impossible
//! and `sent = delivered + dropped` holds *exactly* — globally, per
//! class and per flow (`harness`). Runs of equal-length frames ride one
//! UDP GSO datagram (`UDP_SEGMENT` out, `UDP_GRO` in, Linux ≥ 5.0), so
//! the loopback stack is walked once per run, not once per frame.
//!
//! The crate deliberately reuses the rest of the repository instead of
//! duplicating it: packets come from the dataplane's
//! [`SourceGenerator`](hummingbird_dataplane::SourceGenerator),
//! credentials and hop engines from
//! [`LinearTopology`](hummingbird_netsim::LinearTopology), and tail
//! latency from the dataplane's
//! [`LatencyHistogram`](hummingbird_dataplane::LatencyHistogram).

// `deny` rather than `forbid`: `sys`, the three socket calls behind UDP
// segmentation offload that `std::net` lacks, opts back in with a scoped
// `allow`; every other module stays free of `unsafe`.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::cast_possible_truncation)
)]

mod frame;
mod harness;
mod link;
mod mix;
mod node;
#[allow(unsafe_code)]
mod sys;

pub use frame::{PayloadHeader, KIND_DATA, KIND_FIN, PAYLOAD_HDR_LEN};
pub use harness::{run_chain, ChainSpec, ClassReport, LinkCounts, RunReport, RESERVED_BW_KBPS};
pub use link::{AckSender, CreditedSender, WaitStrategy};
pub use mix::{FlowSpec, MixPlan, TrafficMix};
pub use node::{NodeStats, Sink, SinkReport, SocketRouter, BEST_EFFORT, RESERVED};

use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Wall-clock Unix time in milliseconds — what generators stamp packets
/// with (engines enforce a freshness window against the same clock).
pub fn now_unix_ms() -> u64 {
    now_unix_ns() / 1_000_000
}

/// Wall-clock Unix time in nanoseconds — what engines are handed as
/// `now_ns`. A clock set before 1970 saturates to the epoch itself
/// instead of panicking a node thread; generators and engines read the
/// same helpers, so they still agree on the time.
pub fn now_unix_ns() -> u64 {
    nanos(SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or(Duration::ZERO))
}

/// `d` in nanoseconds, saturating at `u64::MAX` (584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
