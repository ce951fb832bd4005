//! The O(1) renewal fast path (paper §4.2 extension).
//!
//! Re-buying a reservation through the market costs a purchase (with up
//! to three asset splits), a redeem wrapping two assets, and a delivery —
//! five-plus object mutations, a fresh First-Fit coloring pass and an
//! ECIES key exchange. For long-lived flows that simply want "the same
//! reservation, next window", that is pure overhead: the hop set, the
//! bandwidth class and the ResID all stay the same, and client and AS
//! *already share a secret* — the current window's `A_K`.
//!
//! A renewal instead touches a *fixed* number of objects and does no
//! public-key cryptography at all:
//!
//! 1. The client posts a [`RenewalRequest`] naming the reservation by
//!    `(ingress, res_id)` and its current *generation*, paying the
//!    renewal fee up front (one small request object + the fee payment).
//!    No ephemeral key is needed.
//! 2. The AS serves *all* pending renewals in one batched transaction
//!    ([`crate::AsService::process_renewals`]): for each accepted renewal
//!    it deletes the request and creates a [`RenewedReservation`] — two
//!    object touches — after extending the reservation's interval
//!    **in place** in the coloring state (`try_extend`: an O(log)
//!    successor check, no re-coloring). The new window's `A_K` is
//!    wrapped symmetrically (AES-CTR + HMAC) under a key ratcheted off
//!    the *previous* window's `A_K` ([`renewal_wrap_key`]), so the
//!    per-renewal crypto is two HMACs and one short AES pass instead of
//!    group exponentiations. Rejected renewals get the fee refunded in
//!    the same transaction.
//!
//! The generation counter makes requests idempotent and unambiguous: the
//! AS bumps it on every successful renewal, so a stale or replayed
//! request (wrong generation) is rejected and refunded instead of
//! double-extending. Authenticity needs no signature either — the
//! request's sender is checked on chain, and only the holder of the
//! previous `A_K` can unwrap the response. A renewal never changes the
//! reservation's ingress, egress or ResID — and therefore never moves it
//! to a different data-plane shard.

use crate::plane::{ControlPlane, CpResult};
use hummingbird_crypto::cmac::Cmac;
use hummingbird_crypto::sealed::SecretBox;
use hummingbird_ledger::codec::{DecodeError, Reader, Writer};
use hummingbird_ledger::{Address, ExecError, ObjectId, Owner};
use hummingbird_wire::IsdAs;

/// Type tag of renewal request objects.
pub(crate) const TAG_RENEWAL: &str = "hummingbird::renewal::RenewalRequest";

/// Type tag of renewed-reservation delivery objects.
pub(crate) const TAG_RENEWED: &str = "hummingbird::renewal::RenewedReservation";

/// Derives the symmetric wrapping key for a renewal delivery from the
/// previous window's authentication key. Both sides can compute it: the
/// client holds `prev_key` from its current reservation, the AS re-derives
/// it from `SV` (Eq. 2). Binding the *new* generation number into the
/// ratchet makes every window's wrap key distinct. AES-CMAC as the PRF —
/// same primitive (and hardware path) as the data-plane key derivation,
/// so a renewal costs no hash-function work at all.
pub(crate) fn renewal_wrap_key(prev_key: &[u8; 16], new_generation: u32) -> [u8; 16] {
    let mut msg = [0u8; 28];
    msg[..24].copy_from_slice(b"hummingbird-renewal-wrap");
    msg[24..].copy_from_slice(&new_generation.to_be_bytes());
    Cmac::new(prev_key).mac(&msg)
}

/// A client's request to extend an existing reservation by one more
/// duration window, owned by the issuing AS's account until served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenewalRequest {
    /// Who is renewing (receives the wrapped delivery or the refund).
    pub requester: Address,
    /// Ingress interface of the reservation being renewed.
    pub ingress: u16,
    /// ResID of the reservation being renewed.
    pub res_id: u32,
    /// The reservation's current generation (number of prior renewals).
    pub generation: u32,
    /// Renewal fee in MIST, paid to the AS when the request is posted and
    /// refunded if the renewal is rejected.
    pub fee: u64,
}

impl RenewalRequest {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.requester.0);
        w.u16(self.ingress);
        w.u32(self.res_id);
        w.u32(self.generation);
        w.u64(self.fee);
        w.finish()
    }

    /// Parses a request.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let req = RenewalRequest {
            requester: Address(r.array::<32>()?),
            ingress: r.u16()?,
            res_id: r.u32()?,
            generation: r.u32()?,
            fee: r.u64()?,
        };
        r.finish()?;
        Ok(req)
    }
}

/// A renewed-reservation delivery: plaintext routing fields so the client
/// can locate the reservation it extends (and derive the unwrap key), plus
/// the symmetrically wrapped `(ResInfo, A_K)` payload for the new window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RenewedReservation {
    /// The issuing AS.
    pub as_id: IsdAs,
    /// Ingress interface of the renewed reservation.
    pub ingress: u16,
    /// ResID of the renewed reservation (unchanged by renewal).
    pub res_id: u32,
    /// Generation *after* this renewal — the value to quote next time.
    pub generation: u32,
    /// Payload wrapped under [`renewal_wrap_key`] of the previous window.
    pub boxed: SecretBox,
}

impl RenewedReservation {
    /// Serializes the delivery.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.as_id.isd);
        w.u64(self.as_id.asn);
        w.u16(self.ingress);
        w.u32(self.res_id);
        w.u32(self.generation);
        w.bytes(&self.boxed.nonce);
        w.var_bytes(&self.boxed.ciphertext);
        w.bytes(&self.boxed.tag);
        w.finish()
    }

    /// Parses the delivery.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let as_id = IsdAs::new(r.u16()?, r.u64()?);
        let ingress = r.u16()?;
        let res_id = r.u32()?;
        let generation = r.u32()?;
        let nonce = r.array::<16>()?;
        let ciphertext = r.var_bytes()?;
        let tag = r.array::<16>()?;
        r.finish()?;
        Ok(RenewedReservation {
            as_id,
            ingress,
            res_id,
            generation,
            boxed: SecretBox { nonce, ciphertext, tag },
        })
    }
}

impl ControlPlane {
    /// Posts a whole batch of renewal requests in **one transaction**: one
    /// digest, one gas accounting pass and one fee payment covering every
    /// request, instead of a full transaction per renewal. A client
    /// renewing its portfolio for the next window is the common case at
    /// scale, and per-transaction overhead — not per-request work — is
    /// what dominates it. Returns the request object IDs in input order.
    pub fn request_renewals(
        &mut self,
        sender: Address,
        as_account: Address,
        requests: Vec<RenewalRequest>,
    ) -> CpResult<Vec<ObjectId>> {
        if requests.iter().any(|r| r.requester != sender) {
            return Err(ExecError::Contract("renewal requester must be the sender".into()));
        }
        self.exec(sender, move |ctx| {
            let total_fee: u64 = requests.iter().map(|r| r.fee).sum();
            ctx.pay(as_account, total_fee);
            Ok(requests
                .iter()
                .map(|r| ctx.create(Owner::Address(as_account), TAG_RENEWAL, r.encode()))
                .collect())
        })
    }

    /// All pending renewal requests owned by `as_account`, in object-ID
    /// order (index-backed, like [`ControlPlane::pending_requests`]).
    pub(crate) fn pending_renewals(&self, as_account: Address) -> Vec<(ObjectId, RenewalRequest)> {
        self.ledger
            .objects_owned_by(Owner::Address(as_account), TAG_RENEWAL)
            .filter_map(|e| RenewalRequest::decode(&e.data).ok().map(|r| (e.meta.id, r)))
            .collect()
    }

    /// All renewed-reservation deliveries owned by `recipient`, in
    /// object-ID order (index-backed).
    pub(crate) fn renewal_deliveries_for(
        &self,
        recipient: Address,
    ) -> Vec<(ObjectId, RenewedReservation)> {
        self.ledger
            .objects_owned_by(Owner::Address(recipient), TAG_RENEWED)
            .filter_map(|e| RenewedReservation::decode(&e.data).ok().map(|d| (e.meta.id, d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renewal_request_roundtrip() {
        let req = RenewalRequest {
            requester: Address::from_label("host"),
            ingress: 3,
            res_id: 1_234_567,
            generation: 42,
            fee: 5_000,
        };
        assert_eq!(RenewalRequest::decode(&req.encode()).unwrap(), req);
        let bytes = req.encode();
        assert!(RenewalRequest::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn renewed_reservation_roundtrip() {
        let d = RenewedReservation {
            as_id: IsdAs::new(1, 0x5005),
            ingress: 7,
            res_id: 99,
            generation: 3,
            boxed: SecretBox { nonce: [4u8; 16], ciphertext: vec![1, 2, 3, 4, 5], tag: [9u8; 16] },
        };
        assert_eq!(RenewedReservation::decode(&d.encode()).unwrap(), d);
        let bytes = d.encode();
        assert!(RenewedReservation::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn wrap_key_depends_on_key_and_generation() {
        let a = renewal_wrap_key(&[1u8; 16], 1);
        assert_eq!(a, renewal_wrap_key(&[1u8; 16], 1));
        assert_ne!(a, renewal_wrap_key(&[1u8; 16], 2));
        assert_ne!(a, renewal_wrap_key(&[2u8; 16], 1));
    }

    #[test]
    fn request_renewal_rejects_spoofed_requester() {
        let mut cp = ControlPlane::default();
        let mallory = Address::from_label("mallory");
        let victim = Address::from_label("victim");
        let as_account = Address::from_label("as");
        cp.faucet(mallory, 10);
        let req =
            RenewalRequest { requester: victim, ingress: 1, res_id: 0, generation: 0, fee: 100 };
        assert!(cp.request_renewals(mallory, as_account, vec![req]).is_err());
    }
}
