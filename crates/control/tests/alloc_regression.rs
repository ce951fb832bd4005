//! Allocation-count regression test for the hot read-side queries
//! (ISSUE 9 small fix).
//!
//! The ledger's query surface is borrowed: [`Ledger::object`],
//! [`Ledger::objects_owned_by`] and [`Ledger::objects`] hand out
//! `&ObjectEntry` straight from the committed store, and
//! [`Ledger::balance`] / [`Ledger::object_count`] are plain lookups.
//! None of them may allocate — at millions of objects, a clone per
//! probe on the admission path is exactly the kind of cost this PR
//! removes. `ControlPlane::asset` decodes into an owned value (its
//! payload carries a variable-length display string, so a copy is
//! required); its allocation count is pinned to a small constant
//! instead.
//!
//! The whole file is one `#[test]`: the counting allocator is a
//! process-global, and a single test keeps the counts deterministic.
//!
//! [`Ledger::object`]: hummingbird_ledger::Ledger::object
//! [`Ledger::objects_owned_by`]: hummingbird_ledger::Ledger::objects_owned_by
//! [`Ledger::objects`]: hummingbird_ledger::Ledger::objects
//! [`Ledger::balance`]: hummingbird_ledger::Ledger::balance
//! [`Ledger::object_count`]: hummingbird_ledger::Ledger::object_count

use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::types::TAG_ASSET;
use hummingbird_control::{
    AsService, BandwidthAsset, Client, ControlPlane, Direction, PurchaseSpec,
};
use hummingbird_crypto::sig::SecretKey;
use hummingbird_ledger::{Address, ObjectId, Owner};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn hot_queries_do_not_allocate() {
    let mut rng = StdRng::seed_from_u64(3);
    let as_id = IsdAs::new(1, 0x1_0001);
    let cert_key = SecretKey::from_seed(b"alloc-as");
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, cert_key.public());
    let mut cp = ControlPlane::new(anchors);
    let mut service = AsService::new(as_id, cert_key, [7u8; 16], 1 << 12);
    cp.faucet(service.account, 1_000_000);
    service.register(&mut cp, &mut rng).expect("register");

    // A few hundred committed assets so the queries have real work.
    let mut ids: Vec<ObjectId> = Vec::new();
    for i in 0..300u64 {
        let a = BandwidthAsset {
            as_id,
            bandwidth_kbps: 1_000 + i,
            start_time: 0,
            expiry_time: 3600,
            interface: 1,
            direction: Direction::Ingress,
            time_granularity: 60,
            min_bandwidth_kbps: 100,
        };
        ids.push(service.issue_asset(&mut cp, a).expect("issue").value);
    }
    let owner = Owner::Address(service.account);

    // Borrowed point lookups: zero allocations.
    let (n, entry) = allocations_during(|| cp.ledger.object(ids[150]));
    assert!(entry.is_some());
    assert_eq!(n, 0, "Ledger::object must not allocate");

    let (n, balance) = allocations_during(|| cp.ledger.balance(service.account));
    assert!(balance > 0);
    assert_eq!(n, 0, "Ledger::balance must not allocate");

    let (n, count) = allocations_during(|| cp.ledger.object_count());
    assert!(count >= 300);
    assert_eq!(n, 0, "Ledger::object_count must not allocate");

    // Borrowed index-backed iteration over all 300 assets: zero
    // allocations — entries are handed out by reference.
    let (n, (seen, bytes)) = allocations_during(|| {
        let mut seen = 0usize;
        let mut bytes = 0usize;
        for e in cp.ledger.objects_owned_by(owner, TAG_ASSET) {
            seen += 1;
            bytes += e.data.len();
        }
        (seen, bytes)
    });
    assert_eq!(seen, 300);
    assert!(bytes > 0);
    assert_eq!(n, 0, "Ledger::objects_owned_by iteration must not allocate");

    // Whole-store iteration is borrowed too.
    let (n, total) = allocations_during(|| cp.ledger.objects().count());
    assert!(total >= 300);
    assert_eq!(n, 0, "Ledger::objects iteration must not allocate");

    // Decoding into an owned asset must copy the payload, but only the
    // payload: a small constant number of allocations per probe, not
    // O(store) and not a whole-entry clone.
    let (n, asset) = allocations_during(|| cp.asset(ids[10]));
    assert!(asset.is_some());
    assert!(n <= 4, "ControlPlane::asset allocated {n} times for one decode");

    // An address with no objects of the tag: the index lookup itself
    // must not allocate either.
    let stranger = Owner::Address(Address::from_label("stranger"));
    let (n, none) = allocations_during(|| cp.ledger.objects_owned_by(stranger, TAG_ASSET).count());
    assert_eq!(none, 0);
    assert_eq!(n, 0, "empty index lookup must not allocate");

    // The admit path's transactions, warm: the ledger lends every
    // transaction the same staging tables, versions bump without a
    // payload copy and encoders size their buffer once, so what is left
    // is the payloads that end up on chain. Parent counts (ISSUE 19,
    // same harness): issue 10, list 12, buy-and-redeem 36, empty exec 4.
    let account = service.account;
    let market = cp.create_marketplace(account).expect("market").value;
    cp.register_seller(account, market).expect("seller");
    let mut client = Client::new(Address::from_label("alloc-client"));
    cp.faucet(client.account, 100_000);
    let mk = |direction, interface| BandwidthAsset {
        as_id,
        bandwidth_kbps: 1_000,
        start_time: 0,
        expiry_time: 3600,
        interface,
        direction,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    };
    let spec = PurchaseSpec { start: 0, end: 3600, bandwidth_kbps: 1_000 };
    let mut worst = [0u64; 4];
    for round in 0..4 {
        let (issue, ing) =
            allocations_during(|| service.issue_asset(&mut cp, mk(Direction::Ingress, 1)));
        let ing = ing.expect("issue").value;
        let eg = service.issue_asset(&mut cp, mk(Direction::Egress, 2)).expect("issue").value;
        let (list, l_in) = allocations_during(|| cp.create_listing(account, market, ing, 1));
        let l_in = l_in.expect("list").value;
        let l_eg = cp.create_listing(account, market, eg, 1).expect("list").value;
        let (buy, bought) = allocations_during(|| {
            client.buy_and_redeem_path(&mut cp, market, &[(l_in, l_eg, spec)], &mut rng)
        });
        bought.expect("buy and redeem");
        let (empty, ran) = allocations_during(|| cp.exec(account, |_| Ok(())));
        ran.expect("empty exec");
        if round > 0 {
            for (w, n) in worst.iter_mut().zip([issue, list, buy, empty]) {
                *w = (*w).max(n);
            }
        }
    }
    let [issue, list, buy, empty] = worst;
    assert!(issue <= 2, "issue_asset allocated {issue} times (display string + payload)");
    assert!(list <= 3, "create_listing allocated {list} times (payload + index set)");
    assert!(buy <= 10, "1-hop buy_and_redeem_path allocated {buy} times");
    assert_eq!(
        empty, 0,
        "an empty exec bumps the gas coin's version; that stages metadata only, moves no \
         payload and reuses the ledger's tables, so it needs no allocation at all"
    );
}
