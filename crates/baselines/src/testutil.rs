//! Shared fixture of the crate's unit tests: the verifying AS's secrets
//! and senders over one beaconed two-hop path, stamped through the
//! family table.

use crate::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::{forge_path, BeaconHop, SourceGenerator};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

pub(crate) const NOW_S: u64 = 1_700_000_100;
pub(crate) const NOW_MS: u64 = NOW_S * 1000;
pub(crate) const NOW_NS: u64 = NOW_S * 1_000_000_000;
pub(crate) const MASTER: [u8; 16] = [0x77; 16];

pub(crate) fn sv() -> SecretValue {
    SecretValue::new([0x61; 16])
}

pub(crate) fn hop_key() -> HopMacKey {
    HopMacKey::new([0x41; 16])
}

/// An uncredentialed generator from `src`; the verifying AS is hop 0
/// (construction ingress 0, egress 1).
pub(crate) fn generator(src: IsdAs) -> SourceGenerator {
    let hops = [
        BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 1 },
        BeaconHop { key: HopMacKey::new([0x42; 16]), cons_ingress: 2, cons_egress: 0 },
    ];
    SourceGenerator::new(src, IsdAs::new(2, 0x20), forge_path(&hops, NOW_S as u32 - 100, 0x7777))
}

/// [`generator`] carrying `family`'s hop-0 credential issued at `now_s`
/// under [`sv`] / `master`.
pub(crate) fn sender(
    family: EngineFamily,
    master: &[u8; 16],
    src: IsdAs,
    res_id: u32,
    bw_kbps: u64,
    now_s: u64,
) -> SourceGenerator {
    let credential = family.credential(&sv(), master, 0, 1, &mut { res_id }, src, bw_kbps, now_s);
    let mut sender = generator(src);
    sender.attach_reservation(0, credential).unwrap();
    sender
}
