//! Real-socket UDP testbed: a gateway, a chain of border routers and a
//! sink running as threads that exchange *real UDP datagrams* over
//! loopback — the deployment-shaped counterpart to the in-process
//! benchmarks and the discrete-event `netsim`.
//!
//! Each router node pulls datagrams off its own `UdpSocket`, validates
//! them with [`hummingbird_wire::PacketView::new_checked`], drives them
//! through any [`EngineFamily`](hummingbird_netsim::EngineFamily)
//! datapath behind a [`ShardedRouter`](hummingbird_dataplane::ShardedRouter)
//! (so the bench `--cores` knob applies unchanged), and forwards
//! the mutated bytes to the next hop's socket. Links are credit-windowed
//! ([`link`]) so kernel receive-buffer drops are structurally impossible
//! and `sent = delivered + dropped` holds *exactly* — globally, per
//! class and per flow ([`harness`]).
//!
//! The crate deliberately reuses the rest of the repository instead of
//! duplicating it: packets come from the dataplane's
//! [`SourceGenerator`](hummingbird_dataplane::SourceGenerator),
//! credentials and hop engines from
//! [`LinearTopology`](hummingbird_netsim::LinearTopology), and tail
//! latency from the dataplane's
//! [`LatencyHistogram`](hummingbird_dataplane::LatencyHistogram).

pub mod frame;
pub mod harness;
pub mod link;
pub mod mix;
pub mod node;

pub use frame::{PayloadHeader, KIND_DATA, KIND_FIN, PAYLOAD_HDR_LEN};
pub use harness::{run_chain, ChainSpec, ClassReport, RunReport, RESERVED_BW_KBPS};
pub use link::{AckSender, CreditedSender, WaitStrategy};
pub use mix::{FlowSpec, MixPlan, TrafficMix};
pub use node::{NodeStats, Sink, SinkClass, SinkReport, SocketRouter, BEST_EFFORT, RESERVED};

use std::time::{SystemTime, UNIX_EPOCH};

/// Wall-clock Unix time in milliseconds — what generators stamp packets
/// with (engines enforce a freshness window against the same clock).
pub fn now_unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("clock before epoch").as_millis() as u64
}

/// Wall-clock Unix time in nanoseconds — what engines are handed as
/// `now_ns`.
pub fn now_unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("clock before epoch").as_nanos() as u64
}
