//! A DRKey-style key-derivation hierarchy (Kim et al., PISKES/DRKey).
//!
//! Helia and Colibri both require the DRKey infrastructure: every AS
//! derives per-AS and per-host symmetric keys from a periodically rotated
//! secret, so any two parties share a key without interaction. Hummingbird
//! deliberately avoids this dependency (§2: "requires the DRKey
//! infrastructure to be in place"), but the baseline needs it.
//!
//! Hierarchy (all single-AES derivations, matching the DRKey design):
//!
//! ```text
//! SV_A(epoch)                      AS A's epoch secret
//! K_{A→B}   = PRF_{SV_A}(B)        AS-to-AS key (fetched by B's service)
//! K_{A→B:H} = PRF_{K_{A→B}}(H)     AS-to-host key (derived by B for host H)
//! ```

use hummingbird_crypto::aes::Aes128;
use hummingbird_wire::IsdAs;

/// Length of a DRKey epoch in seconds (typical deployments: hours).
pub(crate) const EPOCH_SECS: u64 = 6 * 3600;

/// An AS's DRKey secret for one epoch.
pub(crate) struct DrKeySecret {
    cipher: Aes128,
    epoch: u64,
}

impl DrKeySecret {
    /// Derives the epoch secret from the AS's long-term master key.
    pub(crate) fn derive(master: &[u8; 16], epoch: u64) -> Self {
        let sv = Aes128::new(master).encrypt(&epoch_block(epoch));
        DrKeySecret { cipher: Aes128::new(&sv), epoch }
    }

    /// First-level key `K_{A→B}`.
    pub(crate) fn as_to_as(&self, b: IsdAs) -> [u8; 16] {
        self.cipher.encrypt(&as_block(b))
    }

    /// Second-level key `K_{A→B:H}` for host `host` in AS `b`.
    pub(crate) fn as_to_host(&self, b: IsdAs, host: [u8; 4]) -> [u8; 16] {
        Aes128::new(&self.as_to_as(b)).encrypt(&host_block(host))
    }
}

/// The PRF input of `SV_A(epoch)` under the master key.
pub(crate) fn epoch_block(epoch: u64) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(b"drkey-sv");
    block[8..16].copy_from_slice(&epoch.to_be_bytes());
    block
}

/// The PRF input of `K_{A→B}` under `SV_A`.
pub(crate) fn as_block(b: IsdAs) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[0..2].copy_from_slice(&b.isd.to_be_bytes());
    block[2..10].copy_from_slice(&b.asn.to_be_bytes());
    block
}

/// The PRF input of `K_{A→B:H}` under `K_{A→B}`.
pub(crate) fn host_block(host: [u8; 4]) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[0..4].copy_from_slice(&host);
    block[4] = 0x01; // level tag
    block
}

/// The root of the DRKey and EPIC engines' key chains: the epoch secret
/// of the clock's epoch, one entry the clock rotates. No packet chooses
/// it.
pub(crate) struct EpochRoot {
    master: [u8; 16],
    secret: DrKeySecret,
}

impl EpochRoot {
    /// The root under `master`, holding epoch 0 until the clock says
    /// otherwise.
    pub(crate) fn new(master: [u8; 16]) -> Self {
        EpochRoot { master, secret: DrKeySecret::derive(&master, 0) }
    }

    /// The expanded epoch secret of the epoch covering `now_s`.
    pub(crate) fn at(&mut self, now_s: u64) -> &Aes128 {
        let epoch = epoch_of(now_s);
        if self.secret.epoch != epoch {
            self.secret = DrKeySecret::derive(&self.master, epoch);
        }
        &self.secret.cipher
    }
}

/// The epoch index covering `unix_s`.
pub(crate) fn epoch_of(unix_s: u64) -> u64 {
    unix_s / EPOCH_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_within_an_epoch() {
        let a = DrKeySecret::derive(&[1u8; 16], 7);
        let b = DrKeySecret::derive(&[1u8; 16], 7);
        let target = IsdAs::new(1, 42);
        assert_eq!(a.as_to_as(target), b.as_to_as(target));
        assert_eq!(a.as_to_host(target, [1, 2, 3, 4]), b.as_to_host(target, [1, 2, 3, 4]));
    }

    #[test]
    fn keys_rotate_across_epochs() {
        let e7 = DrKeySecret::derive(&[1u8; 16], 7);
        let e8 = DrKeySecret::derive(&[1u8; 16], 8);
        let target = IsdAs::new(1, 42);
        assert_ne!(e7.as_to_as(target), e8.as_to_as(target));
    }

    #[test]
    fn keys_differ_per_peer_and_host() {
        let sv = DrKeySecret::derive(&[2u8; 16], 1);
        assert_ne!(sv.as_to_as(IsdAs::new(1, 1)), sv.as_to_as(IsdAs::new(1, 2)));
        assert_ne!(
            sv.as_to_host(IsdAs::new(1, 1), [0, 0, 0, 1]),
            sv.as_to_host(IsdAs::new(1, 1), [0, 0, 0, 2])
        );
        // Host keys are not the AS key.
        assert_ne!(sv.as_to_as(IsdAs::new(1, 1)), sv.as_to_host(IsdAs::new(1, 1), [0, 0, 0, 1]));
    }

    #[test]
    fn epoch_arithmetic() {
        assert_eq!(epoch_of(0), 0);
        assert_eq!(epoch_of(EPOCH_SECS - 1), 0);
        assert_eq!(epoch_of(EPOCH_SECS), 1);
    }
}
