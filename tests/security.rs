//! Security-property tests at the public API level, following the paper's
//! analysis (§5): C1 secure reservation establishment, C2 economic
//! fairness, D1 overuse protection, D2 QoS.

use hummingbird::world::{World, WorldConfig};
use hummingbird::{IsdAs, PurchaseSpec};
use hummingbird_control::pki::{sign_registration, TrustAnchors};
use hummingbird_control::{AsService, Client, ControlPlane};
use hummingbird_crypto::sealed;
use hummingbird_crypto::sig::SecretKey;
use hummingbird_ledger::Address;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// C1: only the AS holding the certified key can register and issue; an
/// attacker cannot create assets for someone else's AS.
#[test]
fn c1_registration_is_unforgeable() {
    let mut rng = StdRng::seed_from_u64(1);
    let honest_key = SecretKey::from_seed(b"honest");
    let as_id = IsdAs::new(1, 100);
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, honest_key.public());
    let mut cp = ControlPlane::new(anchors);

    // Attacker tries with its own key.
    let attacker_key = SecretKey::from_seed(b"attacker");
    let attacker = Address::from_pubkey(&attacker_key.public());
    cp.faucet(attacker, 100);
    let forged = sign_registration(&attacker_key, as_id, attacker, &mut rng);
    assert!(cp.register_as(attacker, as_id, &forged).is_err());

    // Attacker replays the honest AS's proof under its own account: the
    // proof binds the account address, so this fails too.
    let honest_account = Address::from_pubkey(&honest_key.public());
    let honest_proof = sign_registration(&honest_key, as_id, honest_account, &mut rng);
    assert!(cp.register_as(attacker, as_id, &honest_proof).is_err());

    // The honest AS succeeds.
    cp.faucet(honest_account, 100);
    assert!(cp.register_as(honest_account, as_id, &honest_proof).is_ok());
}

/// C1: reservation keys are confidential — the delivery on chain is
/// sealed to the redeemer's ephemeral key, and an observer of the chain
/// (any other account) cannot decrypt it.
#[test]
fn c1_delivered_keys_are_confidential() {
    let mut world = World::build(WorldConfig::default()).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut alice = world.new_client("alice", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    // Buy + redeem but do NOT collect yet; the sealed deliveries sit on
    // chain owned by alice.
    let hops: Vec<_> = {
        let listings = world.control.listings(world.market);
        // ingress/egress pair per hop, matching interfaces.
        (0..world.cfg.n_ases)
            .map(|i| {
                let (ing_if, eg_if) = hummingbird::LinearTopology::interfaces(world.cfg.n_ases, i);
                let ing = listings
                    .iter()
                    .find(|(_, _, a)| {
                        a.interface == ing_if
                            && a.as_id == World::as_id(i)
                            && a.direction == hummingbird::Direction::Ingress
                    })
                    .unwrap()
                    .0;
                let eg = listings
                    .iter()
                    .find(|(_, _, a)| {
                        a.interface == eg_if
                            && a.as_id == World::as_id(i)
                            && a.direction == hummingbird::Direction::Egress
                    })
                    .unwrap()
                    .0;
                (ing, eg, spec)
            })
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(9);
    alice.buy_and_redeem_path(&mut world.control, world.market, &hops, &mut rng).unwrap();
    for service in world.services.iter_mut() {
        service.process_requests(&mut world.control, &mut rng).unwrap();
    }

    // An eavesdropper reads the public chain state but cannot open any
    // sealed delivery with keys of its own.
    let deliveries = world.control.deliveries_for(alice.account);
    assert_eq!(deliveries.len(), world.cfg.n_ases);
    let eve_key = SecretKey::from_seed(b"eve");
    for (_, d) in &deliveries {
        assert!(sealed::open(&eve_key, &d.sealed).is_err());
    }
    // Alice (holding the matching ephemeral secrets) can.
    assert_eq!(alice.collect_deliveries(&world.control).unwrap(), world.cfg.n_ases);
}

/// C2 (economic fairness): starving others requires buying the bandwidth
/// at market price — Sybil accounts don't help; the price paid scales
/// with the bandwidth acquired, not the number of accounts.
#[test]
fn c2_sybil_accounts_pay_full_market_price() {
    let price_for = |n_accounts: usize| -> u64 {
        let mut world = World::build(WorldConfig { n_ases: 1, ..Default::default() }).unwrap();
        let t0 = world.cfg.start_unix_s;
        world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
        // The adversary wants the whole 100 Mbps hour; it splits the
        // purchase across `n_accounts` Sybils.
        let total_bw = 100_000u64;
        let per_account = total_bw / n_accounts as u64;
        let mut total_paid = 0u64;
        for s in 0..n_accounts {
            let mut sybil = world.new_client(&format!("sybil-{s}"), 100_000);
            let before = world.control.ledger.balance(sybil.account);
            let spec = PurchaseSpec { start: t0 - 60, end: t0 + 3540, bandwidth_kbps: per_account };
            world.acquire_path(&mut sybil, spec).unwrap();
            total_paid += before - world.control.ledger.balance(sybil.account);
        }
        total_paid
    };
    let one = price_for(1);
    let four = price_for(4);
    // Splitting across Sybils is not cheaper (gas makes it strictly
    // worse; allow 1% numerical slack on the comparison).
    assert!(four as f64 >= one as f64 * 0.99, "4 sybils paid {four} vs single {one}");
}

/// D1: an adversary cannot *undetectably* shift a reservation to another
/// destination — the destination address is authenticated in every tag
/// (reservation stealing mitigation, §5.4).
#[test]
fn d1_reservation_stealing_breaks_the_tag() {
    let mut world = World::build(WorldConfig { n_ases: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = world.new_client("alice", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let grants = world.acquire_path(&mut client, spec).unwrap();
    let mut generator =
        world.make_reserved_generator(IsdAs::new(1, 0xa), IsdAs::new(2, 0xb), &grants).unwrap();
    let node = world.topo.as_nodes[0];
    let now = t0 * 1_000_000_000;

    // Control: the untampered packet verifies.
    let mut ok_pkt = generator.generate(&[0u8; 200], t0 * 1000).unwrap();
    let v1 = world.topo.sim.process_at_router(node, &mut ok_pkt, now).unwrap();
    assert!(v1.is_flyover(), "control packet must verify: {v1:?}");

    // The thief rewrites the destination AS in the address header
    // (DstAS occupies bytes 14..20; common header is 12 B).
    let mut stolen = generator.generate(&[0u8; 200], t0 * 1000).unwrap();
    stolen[18] ^= 0xff;
    let v2 = world.topo.sim.process_at_router(node, &mut stolen, now).unwrap();
    assert!(
        matches!(v2, hummingbird::Verdict::Drop(_)),
        "stolen-destination packet must be dropped: {v2:?}"
    );
}

/// D1: nobody can use more bandwidth than reserved — validated end to end
/// through the policing pipeline in `hummingbird-netsim` tests; here we
/// confirm the AS-side cap on concurrent reservations (ResIDs exhausted →
/// redeem request fails rather than silently over-committing monitoring).
#[test]
fn d1_as_can_cap_monitored_reservations() {
    let mut world =
        World::build(WorldConfig { n_ases: 1, res_id_cap: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 1_000 };

    let mut c1 = world.new_client("c1", 1_000);
    let mut c2 = world.new_client("c2", 1_000);
    let mut c3 = world.new_client("c3", 1_000);
    world.acquire_path(&mut c1, spec).unwrap();
    world.acquire_path(&mut c2, spec).unwrap();
    // Third concurrent reservation on the same interface: the allocator is
    // at its cap.
    let err = world.acquire_path(&mut c3, spec);
    assert!(matches!(
        err,
        Err(hummingbird::WorldError::Service(hummingbird_control::ServiceError::ResIdsExhausted))
    ));
}

/// Control-plane independence: a reservation obtained by one party is
/// usable by another (keys are not bound to network identities).
#[test]
fn reservations_are_identity_free() {
    let mut world = World::build(WorldConfig { n_ases: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut buyer = world.new_client("buyer", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let grants = world.acquire_path(&mut buyer, spec).unwrap();

    // A completely different sender (different SCION source) uses them.
    let other_src = IsdAs::new(9, 0x999);
    let mut generator =
        world.make_reserved_generator(other_src, IsdAs::new(2, 0xb), &grants).unwrap();
    let mut pkt = generator.generate(&[0u8; 100], t0 * 1000).unwrap();
    let v = world
        .topo
        .sim
        .process_at_router(world.topo.as_nodes[0], &mut pkt, t0 * 1_000_000_000)
        .unwrap();
    assert!(v.is_flyover(), "{v:?}");
}

/// AS services must only serve requests addressed to them; a request for
/// AS A never reaches AS B's service.
#[test]
fn services_only_see_their_own_requests() {
    let mut world = World::build(WorldConfig { n_ases: 3, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = world.new_client("alice", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };

    // Buy-and-redeem, then check pending queues before processing.
    let listings = world.control.listings(world.market);
    let hops: Vec<_> = (0..3)
        .map(|i| {
            let (ing_if, eg_if) = hummingbird::LinearTopology::interfaces(3, i);
            let find = |interface: u16, dir: hummingbird::Direction| {
                listings
                    .iter()
                    .find(|(_, _, a)| {
                        a.as_id == World::as_id(i) && a.interface == interface && a.direction == dir
                    })
                    .unwrap()
                    .0
            };
            (
                find(ing_if, hummingbird::Direction::Ingress),
                find(eg_if, hummingbird::Direction::Egress),
                spec,
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(3);
    client.buy_and_redeem_path(&mut world.control, world.market, &hops, &mut rng).unwrap();
    for (i, service) in world.services.iter().enumerate() {
        let pending = world.control.pending_requests(service.account);
        assert_eq!(pending.len(), 1, "exactly one request for AS {i}");
        assert_eq!(pending[0].1.asset.as_id, World::as_id(i));
    }
}

/// Registration also works through the AsService convenience wrapper when
/// anchors are pre-installed (regression guard for the registration flow).
#[test]
fn service_registration_roundtrip() {
    let mut rng = StdRng::seed_from_u64(5);
    let cert = SecretKey::from_seed(b"svc");
    let as_id = IsdAs::new(4, 44);
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, cert.public());
    let mut cp = ControlPlane::new(anchors);
    let mut service = AsService::new(as_id, cert, [1u8; 16], 100);
    cp.faucet(service.account, 100);
    service.register(&mut cp, &mut rng).unwrap();
    assert!(service.auth_token().is_some());
    assert_eq!(cp.as_account(as_id), Some(service.account));

    // A second client cannot impersonate the service's account.
    let mallory = Client::new(Address::from_label("mallory"));
    assert!(cp.pending_requests(mallory.account).is_empty());
}
