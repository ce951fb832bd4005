//! AS PKI substitute: trust anchors and possession proofs (paper §3.2).
//!
//! The paper assumes an existing PKI for ASes (RPKI or SCION's CP-PKI) and
//! has each AS prove possession of its certificate key once, during
//! registration with the asset contract. This module models the PKI as a
//! registry of trust-anchored AS public keys plus the challenge format for
//! the possession proof. See ARCHITECTURE.md ("Schnorr-group
//! substitution") for the substitution rationale.

use hummingbird_crypto::sig::{PublicKey, SecretKey, Signature};
use hummingbird_ledger::Address;
use hummingbird_wire::IsdAs;
use rand::Rng;
use std::collections::HashMap;

/// The registry of AS certificates (ISD-AS → public key).
#[derive(Clone, Debug, Default)]
pub struct TrustAnchors {
    keys: HashMap<IsdAs, PublicKey>,
}

impl TrustAnchors {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the certificate for `as_id`.
    pub fn install(&mut self, as_id: IsdAs, key: PublicKey) {
        self.keys.insert(as_id, key);
    }

    /// Looks up the certified key for `as_id`.
    pub fn key_of(&self, as_id: IsdAs) -> Option<PublicKey> {
        self.keys.get(&as_id).copied()
    }

    /// Verifies a registration possession proof: a signature by the AS
    /// certificate key over the binding of AS identity and on-chain
    /// account.
    pub fn verify_registration(&self, as_id: IsdAs, account: Address, sig: &Signature) -> bool {
        match self.key_of(as_id) {
            Some(pk) => pk.verify(&registration_challenge(as_id, account), sig),
            None => false,
        }
    }
}

/// The message an AS signs to register `account` as its on-chain identity.
pub fn registration_challenge(as_id: IsdAs, account: Address) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"hummingbird-as-registration-v1");
    msg.extend_from_slice(&as_id.isd.to_be_bytes());
    msg.extend_from_slice(&as_id.asn.to_be_bytes());
    msg.extend_from_slice(&account.0);
    msg
}

/// Produces a registration proof with the AS certificate key.
pub fn sign_registration<R: Rng + ?Sized>(
    key: &SecretKey,
    as_id: IsdAs,
    account: Address,
    rng: &mut R,
) -> Signature {
    key.sign(&registration_challenge(as_id, account), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn registration_proof_verifies() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&mut rng);
        let as_id = IsdAs::new(1, 42);
        let account = Address::from_label("as-1-42");
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, sk.public());

        let sig = sign_registration(&sk, as_id, account, &mut rng);
        assert!(anchors.verify_registration(as_id, account, &sig));
    }

    #[test]
    fn proof_is_bound_to_account_and_as() {
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&mut rng);
        let as_id = IsdAs::new(1, 42);
        let account = Address::from_label("good");
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, sk.public());

        let sig = sign_registration(&sk, as_id, account, &mut rng);
        assert!(!anchors.verify_registration(as_id, Address::from_label("evil"), &sig));
        assert!(!anchors.verify_registration(IsdAs::new(1, 43), account, &sig));
    }

    #[test]
    fn unknown_as_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&mut rng);
        let as_id = IsdAs::new(9, 9);
        let account = Address::from_label("a");
        let anchors = TrustAnchors::new();
        let sig = sign_registration(&sk, as_id, account, &mut rng);
        assert!(!anchors.verify_registration(as_id, account, &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let honest = SecretKey::generate(&mut rng);
        let attacker = SecretKey::generate(&mut rng);
        let as_id = IsdAs::new(1, 42);
        let account = Address::from_label("attacker");
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, honest.public());
        // Attacker cannot register someone else's AS with their own key.
        let sig = sign_registration(&attacker, as_id, account, &mut rng);
        assert!(!anchors.verify_registration(as_id, account, &sig));
    }
}
