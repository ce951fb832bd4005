//! Criterion benchmarks of the control plane: contract-call throughput on
//! the in-process ledger (transactions per second for each operation the
//! paper's Table 2 prices), the public-key and hash primitives every
//! admission bottoms out in, and the coloring allocators.

use criterion::{criterion_group, criterion_main, Criterion};
use hummingbird_coloring::{FirstFit, Interval, KiersteadTrotter};
use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::{AsService, BandwidthAsset, ControlPlane, Direction, PurchaseSpec};
use hummingbird_crypto::sealed;
use hummingbird_crypto::sha256::Sha256;
use hummingbird_crypto::sig::SecretKey;
use hummingbird_ledger::Address;
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HOUR: u64 = 3600;

struct World {
    cp: ControlPlane,
    service: AsService,
    market: hummingbird_ledger::ObjectId,
}

fn world() -> World {
    let mut rng = StdRng::seed_from_u64(1);
    let as_id = IsdAs::new(1, 77);
    let cert = SecretKey::from_seed(b"bench-as");
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, cert.public());
    let mut cp = ControlPlane::new(anchors);
    let mut service = AsService::new(as_id, cert, [5u8; 16], 1 << 20);
    cp.faucet(service.account, 1_000_000);
    service.register(&mut cp, &mut rng).unwrap();
    let market = cp.create_marketplace(service.account).unwrap().value;
    cp.register_seller(service.account, market).unwrap();
    World { cp, service, market }
}

fn template(as_id: IsdAs, interface: u16, dir: Direction) -> BandwidthAsset {
    BandwidthAsset {
        as_id,
        bandwidth_kbps: 100_000,
        start_time: 0,
        expiry_time: 10 * HOUR,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    }
}

fn bench_contract_calls(c: &mut Criterion) {
    let mut g = c.benchmark_group("contract_calls");
    g.sample_size(30);

    g.bench_function("issue", |b| {
        let mut w = world();
        let as_id = w.service.as_id;
        b.iter(|| {
            std::hint::black_box(
                w.service
                    .issue_asset(&mut w.cp, template(as_id, 1, Direction::Ingress))
                    .unwrap()
                    .value,
            )
        })
    });

    g.bench_function("issue_and_split_time", |b| {
        let mut w = world();
        let as_id = w.service.as_id;
        let account = w.service.account;
        b.iter(|| {
            let asset = w
                .service
                .issue_asset(&mut w.cp, template(as_id, 1, Direction::Ingress))
                .unwrap()
                .value;
            std::hint::black_box(w.cp.split_time(account, asset, 2 * HOUR).unwrap().value)
        })
    });

    g.bench_function("buy_worst_case_split", |b| {
        let mut w = world();
        let as_id = w.service.as_id;
        let buyer = Address::from_label("bench-buyer");
        w.cp.faucet(buyer, 10_000_000);
        b.iter(|| {
            let asset = w
                .service
                .issue_asset(&mut w.cp, template(as_id, 1, Direction::Ingress))
                .unwrap()
                .value;
            let listing = w.cp.create_listing(w.service.account, w.market, asset, 1).unwrap().value;
            let spec = PurchaseSpec { start: HOUR, end: 2 * HOUR, bandwidth_kbps: 10_000 };
            std::hint::black_box(w.cp.buy(buyer, w.market, listing, spec).unwrap().value)
        })
    });

    g.finish();
}

/// The primitives under one admit: `keygen` is one fixed-base `G^k`,
/// `dh` one variable-base exponentiation; `sha256_64B` is two
/// compressions (data block + padding block) on the active backend —
/// run with `HUMMINGBIRD_AES_BACKEND=soft` for the portable one.
fn bench_admission_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission_crypto");
    let mut rng = StdRng::seed_from_u64(3);
    let sk = SecretKey::from_seed(b"bench-as");
    let pk = sk.public();
    let peer = SecretKey::from_seed(b"bench-peer").public();
    let msg = [0x5Au8; 48];
    let sig = sk.sign(&msg, &mut rng);
    let boxed = sealed::seal(&pk, &msg, &mut rng);

    g.bench_function("keygen", |b| b.iter(|| std::hint::black_box(SecretKey::generate(&mut rng))));
    g.bench_function("dh", |b| b.iter(|| std::hint::black_box(sk.dh(std::hint::black_box(&peer)))));
    g.bench_function("sign", |b| b.iter(|| std::hint::black_box(sk.sign(&msg, &mut rng))));
    g.bench_function("verify", |b| b.iter(|| std::hint::black_box(pk.verify(&msg, &sig))));
    g.bench_function("seal", |b| {
        b.iter(|| std::hint::black_box(sealed::seal(&pk, &msg, &mut rng)))
    });
    g.bench_function("open", |b| b.iter(|| std::hint::black_box(sealed::open(&sk, &boxed))));
    g.bench_function("sha256_64B", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(std::hint::black_box(&[0u8; 64]))))
    });
    g.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut g = c.benchmark_group("coloring");
    let mut rng = StdRng::seed_from_u64(2);
    let intervals: Vec<Interval> = (0..500)
        .map(|_| {
            let s = rng.gen_range(0u64..10_000);
            Interval::new(s, s + rng.gen_range(60..3_600))
        })
        .collect();

    g.bench_function("first_fit_500", |b| {
        b.iter(|| {
            let mut ff = FirstFit::new(u32::MAX);
            for iv in &intervals {
                std::hint::black_box(ff.assign(*iv).unwrap());
            }
        })
    });
    g.bench_function("kierstead_trotter_500", |b| {
        b.iter(|| {
            let mut kt = KiersteadTrotter::new();
            for iv in &intervals {
                std::hint::black_box(kt.assign(*iv));
            }
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_contract_calls, bench_admission_crypto, bench_coloring
);
criterion_main!(benches);
