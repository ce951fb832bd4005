//! Memory a forged flood leaves behind, in every engine family.
//!
//! No engine keeps key state: each derives a flyover packet's key on
//! the fly, and a forged packet never reaches the policer or the
//! duplicate filter. So a flood of forgeries on fresh reservations from
//! fresh sources leaves a default engine as small as it was.
//!
//! The counting allocator counts per thread, so the tests may run in
//! parallel.

use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::router::stages;
use hummingbird_dataplane::{
    forge_path, BeaconHop, DropReason, PacketBuf, RouterConfig, SourceGenerator, Verdict,
    BATCH_SIZE,
};
use hummingbird_wire::common::COMMON_HDR_LEN;
use hummingbird_wire::hopfield::FlyoverHopField;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that tracks the bytes the current thread
/// holds.
struct CountingAlloc;

thread_local! {
    // `const` and destructor-free: touching it never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live total by `bytes`.
fn count(bytes: i64) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's; delegated unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread still holds from what it allocated while running
/// `f` (freed memory does not count).
fn live_bytes_during<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}

const NOW_S: u64 = 1_700_000_096;
const NOW_NS: u64 = NOW_S * 1_000_000_000;
/// The verifying AS's DRKey master.
const MASTER: [u8; 16] = [0x77; 16];
/// Forged flyover packets in the flood, each on a fresh reservation from
/// a fresh source.
const FLOOD: u32 = 200_000;

/// One flyover packet valid in form for `family` but keyed under wrong
/// secrets.
fn forged_template(family: EngineFamily, hop_key: &HopMacKey) -> PacketBuf {
    let hops = [BeaconHop { key: hop_key.clone(), cons_ingress: 0, cons_egress: 1 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 7);
    let src = IsdAs::new(1, 0x10);
    let mut generator = SourceGenerator::new(src, IsdAs::new(2, 0x20), path);
    let wrong_sv = SecretValue::new([0xEE; 16]);
    let credential = family.credential(&wrong_sv, &[0xEE; 16], 0, 1, &mut 1, src, 1_000, NOW_S);
    generator.attach_reservation(0, credential).unwrap();
    PacketBuf::new(generator.generate(&[0u8; 100], NOW_S * 1000).unwrap())
}

#[test]
fn forged_flood_leaves_a_default_router_small() {
    let (sv, hop_key) = (SecretValue::new([0x42; 16]), HopMacKey::new([0x17; 16]));
    for family in EngineFamily::ALL {
        // The flood rewrites the template's reservation fields and source
        // per packet, so the engine meets a fresh reservation from a
        // fresh source every time and no tag verifies.
        let template = forged_template(family, &hop_key);
        let parsed = stages::parse(template.as_bytes()).unwrap();
        let fly = FlyoverHopField::parse(&template.as_bytes()[parsed.hop_off..]).unwrap();
        let mut burst = vec![template; BATCH_SIZE];
        let mut verdicts = Vec::with_capacity(BATCH_SIZE);
        let (bytes, engine) = live_bytes_during(|| {
            let mut engine = family.engine(&sv, &hop_key, &MASTER, RouterConfig::default());
            for first in (0..FLOOD).step_by(BATCH_SIZE) {
                for (n, buf) in (first..).zip(burst.iter_mut()) {
                    let (mut forged, mut addr) = (fly, parsed.addr);
                    (forged.res_id, forged.bw) = (1 + n, 1 + (n % 1000) as u16);
                    forged.emit(&mut buf.bytes_mut()[parsed.hop_off..]).unwrap();
                    (addr.src, addr.src_host) =
                        (IsdAs::new(1, 0x1000 + u64::from(n)), n.to_be_bytes());
                    addr.emit(&mut buf.bytes_mut()[COMMON_HDR_LEN..]).unwrap();
                }
                verdicts.clear();
                engine.process_batch(&mut burst, NOW_NS, &mut verdicts);
                assert!(
                    verdicts.iter().all(|v| *v == Verdict::Drop(DropReason::BadMac)),
                    "{family:?}: {verdicts:?}"
                );
            }
            engine
        });
        assert_eq!(engine.stats().dropped, u64::from(FLOOD), "{family:?}");
        assert!(bytes <= 64 * 1024, "{family:?}: {bytes} bytes held after {FLOOD} forged packets");
    }
}
