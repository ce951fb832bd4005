//! # hummingbird
//!
//! A from-scratch Rust implementation of **Hummingbird: Fast, Flexible,
//! and Fair Inter-Domain Bandwidth Reservations** (SIGCOMM 2025).
//!
//! Hummingbird provides fine-grained, end-host-usable bandwidth
//! reservations across autonomous systems. Reservations are granted per AS
//! hop ("flyovers"), composed by the source into end-to-end guarantees,
//! represented as freely tradable assets on a blockchain control plane,
//! and enforced on the data plane with per-packet MACs and deterministic
//! token-bucket policing.
//!
//! ## Crate map
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | Crypto (AES-128, CMAC, SHA-256, Schnorr, sealed boxes, `A_K`/tags) | `hummingbird_crypto` | §4.1, §7.1 |
//! | Wire formats (Hummingbird SCION path type) | `hummingbird_wire` | App. A |
//! | ResID interval coloring | `hummingbird_coloring` | §4.4 |
//! | Sui-like object ledger (gas, atomic tx, fast path/consensus) | `hummingbird_ledger` | §6 |
//! | Asset + market contracts, redeem flow | `hummingbird_control` | §4.2 |
//! | Border router, policing, traffic generation | `hummingbird_dataplane` | §4.3-4.4, §7 |
//! | Discrete-event network simulation | `hummingbird_netsim` | §5 (D2) |
//! | In-process end-to-end world (this crate) | [`world`] | whole system |
//!
//! This is the workspace's root package, so the repository-level
//! `tests/` and `examples/` build against it.
//!
//! ## Quickstart
//!
//! ```
//! use hummingbird::world::{World, WorldConfig};
//! use hummingbird::PurchaseSpec;
//!
//! let mut world = World::build(WorldConfig::default()).unwrap();
//! let t0 = world.cfg.start_unix_s;
//!
//! // ASes list bandwidth on the market.
//! world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
//!
//! // A client atomically buys + redeems reservations for the whole path.
//! let mut client = world.new_client("alice", 1_000);
//! let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
//! let grants = world.acquire_path(&mut client, spec).unwrap();
//! assert_eq!(grants.len(), world.cfg.n_ases);
//!
//! // The grants plug straight into the data plane.
//! let src = hummingbird::IsdAs::new(1, 0xa);
//! let dst = hummingbird::IsdAs::new(2, 0xb);
//! let mut generator = world.make_reserved_generator(src, dst, &grants).unwrap();
//! let pkt = generator.generate(&[0u8; 500], t0 * 1000).unwrap();
//! assert!(pkt.len() > 500);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod bidirectional;
pub mod world;

pub use bidirectional::{BundleEntry, ReservationBundle};
pub use world::{World, WorldConfig, WorldError};

// Re-export the sub-crates under stable names.
pub use hummingbird_coloring as coloring;
pub use hummingbird_control as control;
pub use hummingbird_crypto as crypto;
pub use hummingbird_dataplane as dataplane;
pub use hummingbird_ledger as ledger;
pub use hummingbird_netsim as netsim;
pub use hummingbird_wire as wire;

// Most-used types at the crate root.
pub use hummingbird_control::{
    AsService, BandwidthAsset, Client, ControlPlane, Direction, GrantedReservation, PurchaseSpec,
};
pub use hummingbird_crypto::{AuthKey, ResInfo, SecretValue};
pub use hummingbird_dataplane::{
    BorderRouter, Datapath, DatapathStats, PacketBuf, RouterConfig, SourceGenerator,
    SourceReservation, Verdict,
};
pub use hummingbird_ledger::{Address, ExecPath, Ledger, ObjectId};
pub use hummingbird_netsim::{LinearTopology, LinkSpec, Simulator};
pub use hummingbird_wire::{HummingbirdPath, IsdAs, Packet};

#[cfg(test)]
mod tests {
    use super::world::{World, WorldConfig};
    use super::*;

    #[test]
    fn testbed_builds_and_registers_all_ases() {
        let world = World::build(WorldConfig::default()).unwrap();
        assert_eq!(world.services.len(), 3);
        assert_eq!(world.control.registered_ases().len(), 3);
    }

    #[test]
    fn full_stack_quickstart_flow() {
        let mut world = World::build(WorldConfig { n_ases: 4, ..Default::default() }).unwrap();
        let t0 = world.cfg.start_unix_s;
        world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
        let mut client = world.new_client("alice", 1_000);
        let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
        let grants = world.acquire_path(&mut client, spec).unwrap();
        assert_eq!(grants.len(), 4);

        // Control-plane keys verify at the simulated routers end-to-end.
        let src = IsdAs::new(1, 0xa);
        let dst = IsdAs::new(2, 0xb);
        let generator = world.make_reserved_generator(src, dst, &grants).unwrap();
        let entry = world.topo.as_nodes[0];
        let flow = world.topo.sim.add_flow(hummingbird_netsim::Flow {
            generator,
            entry,
            payload_len: 500,
            interval_ns: 10_000_000,
            start_ns: t0 * 1_000_000_000,
            stop_ns: (t0 + 1) * 1_000_000_000,
        });
        world.topo.sim.run_until((t0 + 2) * 1_000_000_000);
        let stats = world.topo.sim.stats(flow);
        assert!(stats.sent_pkts > 90);
        assert_eq!(stats.delivered_pkts, stats.sent_pkts, "all packets delivered");
        assert_eq!(stats.router_drops, 0);
        // Every router saw them as priority traffic.
        for node in &world.topo.as_nodes {
            let rs = world.topo.sim.router_stats(*node).unwrap();
            assert_eq!(rs.flyover, stats.sent_pkts, "priority at node {node}");
        }
    }

    #[test]
    fn atomic_failure_leaves_funds_untouched() {
        let mut world = World::build(WorldConfig::default()).unwrap();
        let t0 = world.cfg.start_unix_s;
        world.stock_market(1_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
        let mut client = world.new_client("bob", 1_000);
        let before = world.control.ledger.balance(client.account);
        let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
        // 4 Mbps exceeds the 1 Mbps listings: no hop matches.
        assert!(world.acquire_path(&mut client, spec).is_err());
        assert_eq!(world.control.ledger.balance(client.account), before);
        assert_eq!(client.pending_count(), 0);
    }

    #[test]
    fn bidirectional_bundle_shares_reverse_path() {
        let mut world = World::build(WorldConfig::default()).unwrap();
        let t0 = world.cfg.start_unix_s;
        world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
        let mut client = world.new_client("alice", 1_000);
        let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
        let grants = world.acquire_path(&mut client, spec).unwrap();

        // Ship the credentials to the server (App. C flow).
        let bundle = ReservationBundle::from_grants(&grants);
        let received = ReservationBundle::decode(&bundle.encode()).unwrap();
        let server_grants = received.into_grants();
        assert_eq!(server_grants.len(), grants.len());
        // The server can now authenticate packets with the same keys.
        let src = IsdAs::new(2, 0xb);
        let dst = IsdAs::new(1, 0xa);
        let mut generator = world.make_reserved_generator(src, dst, &server_grants).unwrap();
        assert!(generator.generate(&[0u8; 100], t0 * 1000).is_ok());
    }
}
