//! Bidirectional reservations (paper Appendix C).
//!
//! Hummingbird reservations are unidirectional, but because they are not
//! bound to network identities, a client can buy reservations for *both*
//! directions and simply ship the reverse-path credentials to the server.
//! Both directions are billed to the client; the server authenticates its
//! response packets like any Hummingbird sender.
//!
//! Run with: `cargo run --release --example bidirectional`

use hummingbird::world::{World, WorldConfig};
use hummingbird::{IsdAs, PurchaseSpec, ReservationBundle};

fn main() {
    // Forward direction: client -> server over 3 ASes.
    let mut fwd = World::build(WorldConfig { n_ases: 3, seed: 1, ..Default::default() })
        .expect("forward world");
    // Reverse direction: an independent chain (in a real deployment, the
    // reverse path's ASes; here a second simulated path).
    let mut rev = World::build(WorldConfig { n_ases: 3, seed: 2, ..Default::default() })
        .expect("reverse world");
    let t0 = fwd.cfg.start_unix_s;

    for world in [&mut fwd, &mut rev] {
        world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).expect("stock");
    }

    // The client buys BOTH directions (it pays for the server's replies —
    // the property previous systems could not offer).
    let mut client = fwd.new_client("alice", 2_000);
    let mut client_rev = rev.new_client("alice", 2_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let fwd_grants = fwd.acquire_path(&mut client, spec).expect("forward grants");
    let rev_grants = rev.acquire_path(&mut client_rev, spec).expect("reverse grants");
    println!(
        "client bought {} forward + {} reverse flyovers (both billed to the client)",
        fwd_grants.len(),
        rev_grants.len()
    );

    // Ship the reverse credentials to the server over any channel —
    // serialized, they are {} bytes.
    let bundle = ReservationBundle::from_grants(&rev_grants);
    let wire = bundle.encode();
    println!("reverse credential bundle: {} bytes", wire.len());
    let server_grants = ReservationBundle::decode(&wire).expect("bundle").into_grants();

    // Client sends forward with its grants; server responds with the
    // transferred grants. Verify both verify at their first routers.
    let client_addr = IsdAs::new(1, 0xa);
    let server_addr = IsdAs::new(2, 0xb);
    let now_ms = t0 * 1000;
    let now_ns = t0 * 1_000_000_000;

    let mut c2s =
        fwd.make_reserved_generator(client_addr, server_addr, &fwd_grants).expect("c2s generator");
    let mut pkt = c2s.generate(b"request: GET /quote", now_ms).expect("c2s pkt");
    let v = fwd.topo.sim.process_at_router(fwd.topo.as_nodes[0], &mut pkt, now_ns).unwrap();
    println!("client->server packet at first AS: {v:?}");
    assert!(v.is_flyover());

    let mut s2c = rev
        .make_reserved_generator(server_addr, client_addr, &server_grants)
        .expect("s2c generator");
    let mut pkt = s2c.generate(b"response: 42", now_ms).expect("s2c pkt");
    let v = rev.topo.sim.process_at_router(rev.topo.as_nodes[0], &mut pkt, now_ns).unwrap();
    println!("server->client packet at first AS: {v:?}");
    assert!(v.is_flyover());

    println!("\nOK: both directions ride reservations; the server never touched the chain.");
}
