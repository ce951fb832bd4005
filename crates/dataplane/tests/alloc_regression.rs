//! Allocation-count regression tests for the border router's hot path
//! and the runtime loop around it.
//!
//! Steady-state bursts must not allocate. The router keeps no key state
//! — every flyover packet's key is derived in the burst's fused AES
//! pass — so a pass in which every packet meets a reservation it has not
//! seen for a while allocates nothing either.
//!
//! A whole `run_to_completion` allocates per template, not per buffer
//! a template could ever need: its pools grow on demand.
//!
//! A new router allocates per reservation it has seen, not per slot its
//! configuration allows: the policer's ResIDmax array is a bound that
//! fills on first use. (`hummingbird-baselines`' `alloc_regression.rs`
//! floods every engine family with forgeries.)
//!
//! The counting allocator counts per thread, so the tests may run in
//! parallel; the runtime test runs its shards sequentially on its own
//! thread for the same reason.

use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, run_to_completion, BackpressurePolicy, BeaconHop, BorderRouter, Datapath,
    EgressConfig, ExecMode, NullEngine, PacketBuf, RouterConfig, RuntimeConfig, RuntimeMode,
    SourceGenerator, SourceReservation, Verdict, BATCH_SIZE,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts every allocation made by the
/// current thread, and the bytes each one asked for.
struct CountingAlloc;

thread_local! {
    // `const` and destructor-free: touching them never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` (a `realloc` counts its new size).
fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread performed while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes this thread requested from the allocator while running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

const NOW_S: u64 = 1_700_000_096;
const NOW_NS: u64 = NOW_S * 1_000_000_000;
/// Distinct reservations, one packet each, visited in turn.
const FLOWS: u32 = 8 * BATCH_SIZE as u32;

/// One flyover packet per reservation `1..=FLOWS`, valid at the router.
fn packets(sv: &SecretValue, hop_key: &HopMacKey) -> Vec<PacketBuf> {
    let hops = [BeaconHop { key: hop_key.clone(), cons_ingress: 0, cons_egress: 1 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 7);
    let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    (1..=FLOWS)
        .map(|res_id| {
            let res_info = ResInfo {
                ingress: 0,
                egress: 1,
                res_id,
                bw_encoded: 1000,
                res_start: NOW_S as u32 - 50,
                duration: 600,
            };
            let key = sv.derive_key(&res_info);
            generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
            PacketBuf::new(generator.generate(&[0u8; 100], NOW_S * 1000).unwrap())
        })
        .collect()
}

/// One pass over every packet in bursts; returns how many got priority.
fn pass(router: &mut BorderRouter, bufs: &mut [PacketBuf], verdicts: &mut Vec<Verdict>) -> usize {
    let mut flyover = 0;
    for burst in bufs.chunks_mut(BATCH_SIZE) {
        for buf in burst.iter_mut() {
            buf.reset();
        }
        verdicts.clear();
        router.process_batch(burst, NOW_NS, verdicts);
        flyover += verdicts.iter().filter(|v| v.is_flyover()).count();
    }
    flyover
}

#[test]
fn all_miss_pass_allocates_nothing() {
    let sv = SecretValue::new([0x42; 16]);
    let hop_key = HopMacKey::new([0x17; 16]);
    let mut bufs = packets(&sv, &hop_key);
    let mut router = BorderRouter::new(sv, hop_key, RouterConfig::default());
    let mut verdicts = Vec::with_capacity(BATCH_SIZE);

    // Warm-up: every scratch vector reaches burst size.
    assert_eq!(pass(&mut router, &mut bufs, &mut verdicts), FLOWS as usize);

    let (allocs, flyover) = allocations_during(|| pass(&mut router, &mut bufs, &mut verdicts));
    assert_eq!(flyover, FLOWS as usize, "every packet keeps priority");
    assert_eq!(allocs, 0, "{allocs} allocations in {FLOWS} packets");

    // Nor does the sequential path.
    let (allocs, ()) = allocations_during(|| {
        for buf in bufs.iter_mut() {
            buf.reset();
            assert!(router.process(buf.bytes_mut(), NOW_NS).is_flyover());
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations on the sequential path");
}

#[test]
fn new_router_allocates_on_first_use() {
    let (sv, hop_key) = (SecretValue::new([0x42; 16]), HopMacKey::new([0x17; 16]));
    let cfg = RouterConfig::default();
    // Up front, the bounds would be 800 kB of policer slots plus a
    // generation of 4 096 expanded keys.
    let (bytes, router) = bytes_during(|| BorderRouter::new(sv, hop_key, cfg));
    assert!(bytes <= 64 * 1024, "{bytes} bytes for a router that has seen no packet");
    drop(router);
}

/// Allocations of one sharded `run_to_completion` with the tx path on,
/// each of `templates` sent `4 * BATCH_SIZE` times. `Block`, so a build
/// fast enough to outrun the wire stalls instead of shedding packets.
fn sharded_run_allocations(templates: &[Vec<u8>]) -> u64 {
    let mut cfg = RuntimeConfig::new(2);
    cfg.exec = ExecMode::Sequential;
    cfg.egress = Some(EgressConfig::default());
    cfg.backpressure.policy = BackpressurePolicy::Block;
    let pkts = (4 * BATCH_SIZE * templates.len()) as u64;
    let (allocs, report) = allocations_during(|| {
        run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| NullEngine::new(),
            templates,
            pkts,
            NOW_NS,
        )
    });
    assert_eq!(report.packets, pkts);
    assert_eq!(report.egress.expect("tx path on").forwarded(), pkts);
    allocs
}

#[test]
fn sharded_run_allocates_per_template_not_per_buffer() {
    let sv = SecretValue::new([0x42; 16]);
    let hop_key = HopMacKey::new([0x17; 16]);
    let all: Vec<Vec<u8>> = packets(&sv, &hop_key).iter().map(|b| b.as_bytes().to_vec()).collect();
    let runs = [128, 256].map(|n| (n as u64, sharded_run_allocations(&all[..n])));
    // A template costs one buffer (its bytes and header snapshot) plus
    // its pool's vector, however many packets it sends, and the loop
    // itself a few dozen allocations. Pools sized for a whole burst per
    // template cost 2 × BATCH_SIZE + 1 each: 9 382 and 17 704 here.
    for (n, allocs) in runs {
        assert!(allocs <= 3 * n + 64, "{allocs} allocations for {n} templates");
    }
}

/// `generate` costs one allocation per packet — the buffer it returns,
/// of exactly the packet's length — and `generate_into` over a buffer an
/// earlier packet left behind costs none, the header cache warm either
/// way.
#[test]
fn generate_allocates_its_packet_and_generate_into_nothing() {
    let hops = [BeaconHop { key: HopMacKey::new([0x17; 16]), cons_ingress: 0, cons_egress: 1 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 7);
    let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    let payload = [0u8; 100];
    let warm = generator.generate(&payload, NOW_S * 1000).unwrap();
    let (allocs, mut pkt) =
        allocations_during(|| generator.generate(&payload, NOW_S * 1000).unwrap());
    assert_eq!(allocs, 1, "{allocs} allocations for one packet");
    assert_eq!((pkt.len(), pkt.capacity()), (warm.len(), warm.len()));
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..64 {
            generator.generate_into(&payload, NOW_S * 1000, &mut pkt).unwrap();
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations for 64 packets into a reused buffer");
}
