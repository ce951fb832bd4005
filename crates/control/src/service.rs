//! The AS-side Hummingbird service (paper §3.2, "AS Stack").
//!
//! Each reservation-providing AS runs a service that (i) manages the
//! AS-local secret value `SV` shared with its border routers, (ii) assigns
//! ResIDs using online interval coloring so the policing array stays small
//! (§4.4), and (iii) answers redeem requests by deriving `A_K`, sealing it
//! to the host's ephemeral key and posting the delivery transaction (§6.1,
//! "Market Client Application").

use crate::plane::{ControlPlane, CpResult};
use crate::renewal::{renewal_wrap_key, RenewalRequest, RenewedReservation, TAG_RENEWED};
use crate::types::*;
use hummingbird_coloring::{Interval, ShardedFirstFit};
use hummingbird_crypto::sealed;
use hummingbird_crypto::sig::{SecretKey, Signature};
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::ShardMap;
use hummingbird_ledger::codec::{DecodeError, Reader, Writer};
use hummingbird_ledger::{Address, ExecError, ObjectId, Owner};
use hummingbird_wire::bwcls;
use hummingbird_wire::IsdAs;
use rand::Rng;
use std::collections::HashMap;
use std::ops::Range;

/// The decrypted payload of a reservation delivery: the data-plane
/// parameters plus the authentication key `A_K`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReservationPayload {
    /// The reservation description authenticated on the data plane.
    pub res_info: ResInfo,
    /// The 16-byte reservation authentication key.
    pub key: [u8; 16],
}

impl ReservationPayload {
    /// Serializes the payload for sealing.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.res_info.ingress);
        w.u16(self.res_info.egress);
        w.u32(self.res_info.res_id);
        w.u16(self.res_info.bw_encoded);
        w.u32(self.res_info.res_start);
        w.u16(self.res_info.duration);
        w.bytes(&self.key);
        w.finish()
    }

    /// Parses a sealed payload after decryption.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let p = ReservationPayload {
            res_info: ResInfo {
                ingress: r.u16()?,
                egress: r.u16()?,
                res_id: r.u32()?,
                bw_encoded: r.u16()?,
                res_start: r.u32()?,
                duration: r.u16()?,
            },
            key: r.array::<16>()?,
        };
        r.finish()?;
        Ok(p)
    }
}

/// Errors from serving redeem requests.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// All ResIDs for the interface are taken — the AS is at its
    /// monitoring capacity (§3.1: "each AS can individually decide and
    /// limit the number of reservations that it can afford to monitor").
    ResIdsExhausted,
    /// The reservation's duration exceeds the 16-bit wire field.
    DurationTooLong,
    /// The reservation's start time does not fit the 32-bit wire field.
    StartTimeOutOfRange,
    /// Bandwidth does not fit the 10-bit wire encoding.
    BandwidthOutOfRange,
    /// The underlying ledger transaction failed.
    Exec(ExecError),
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ResIdsExhausted => f.write_str("no free ResID for this interface"),
            ServiceError::DurationTooLong => f.write_str("duration exceeds 16-bit field"),
            ServiceError::StartTimeOutOfRange => f.write_str("start time exceeds 32-bit field"),
            ServiceError::BandwidthOutOfRange => f.write_str("bandwidth not encodable"),
            ServiceError::Exec(e) => write!(f, "ledger error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A record of a reservation this AS has granted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IssuedReservation {
    /// Data-plane parameters.
    pub res_info: ResInfo,
    /// Who redeemed it.
    pub granted_to: Address,
}

/// Renewal-table entry: everything needed to re-derive and extend a live
/// reservation without consulting the market or the coloring slow path.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RenewalEntry {
    /// Number of renewals served so far; requests must quote it.
    generation: u32,
    /// The interval held in the allocator (grows with each renewal).
    interval: Interval,
    egress: u16,
    bw_encoded: u16,
    /// Window length in seconds; each renewal appends one more window.
    duration: u16,
    granted_to: Address,
}

/// Outcome of one [`AsService::process_renewals`] batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RenewalReport {
    /// Delivery objects created for accepted renewals.
    pub delivered: Vec<ObjectId>,
    /// Requests rejected (and refunded): unknown reservation, stale
    /// generation, wrong requester, or a coloring conflict.
    pub rejected: usize,
}

/// The Hummingbird service of one AS.
pub struct AsService {
    /// The AS this service speaks for.
    pub as_id: IsdAs,
    /// Its on-chain account.
    pub account: Address,
    cert_key: SecretKey,
    sv: SecretValue,
    /// One ResID allocator per ingress interface (§4.1: IDs are unique per
    /// interface pair; per-ingress unique IDs are "preferred" for
    /// monitoring, which is what we implement). Sharded so freshly issued
    /// ResIDs land in the least-loaded data-plane shard.
    allocators: HashMap<u16, ShardedFirstFit>,
    /// ResID ranges new allocators are built from; defaults to one range
    /// `[0, res_id_cap)` until [`Self::align_with_shard_map`] installs the
    /// dataplane's per-shard partition.
    shard_ranges: Vec<Range<u32>>,
    res_id_cap: u32,
    /// Generation-indexed renewal fast path, keyed `(ingress, res_id)`.
    renewals: HashMap<(u16, u32), RenewalEntry>,
    issued: Vec<IssuedReservation>,
    auth_token: Option<ObjectId>,
}

impl AsService {
    /// Creates a service. `sv_key` is the AS-local data-plane secret;
    /// `cert_key` its PKI key; `res_id_cap` bounds ResIDs per ingress
    /// interface (the policing-array size knob of §4.4).
    pub fn new(as_id: IsdAs, cert_key: SecretKey, sv_key: [u8; 16], res_id_cap: u32) -> Self {
        let account = Address::from_pubkey(&cert_key.public());
        AsService {
            as_id,
            account,
            cert_key,
            sv: SecretValue::new(sv_key),
            allocators: HashMap::new(),
            shard_ranges: vec![Range { start: 0, end: res_id_cap }],
            res_id_cap,
            renewals: HashMap::new(),
            issued: Vec::new(),
            auth_token: None,
        }
    }

    /// Installs the data-plane's per-shard ResID partition so that new
    /// reservations are steered to the least-loaded shard. Only affects
    /// interfaces whose allocator has not been created yet — call before
    /// serving requests.
    pub fn align_with_shard_map(&mut self, map: &ShardMap) {
        self.set_shard_ranges(map.res_id_ranges());
    }

    /// Installs an explicit ResID partition (see
    /// [`Self::align_with_shard_map`]). Ranges are clamped to the
    /// service's `res_id_cap` so the policing-array bound holds per
    /// interface regardless of the dataplane's slot count.
    pub(crate) fn set_shard_ranges(&mut self, ranges: Vec<Range<u32>>) {
        let cap = self.res_id_cap;
        self.shard_ranges = ranges.into_iter().map(|r| r.start.min(cap)..r.end.min(cap)).collect();
        if self.shard_ranges.is_empty() {
            self.shard_ranges = vec![Range { start: 0, end: cap }];
        }
    }

    /// Per-shard active reservation counts on `ingress` (steering
    /// diagnostics); empty if the interface has no allocator yet.
    pub fn shard_loads(&self, ingress: u16) -> Vec<usize> {
        self.allocators.get(&ingress).map(|a| a.active_per_shard()).unwrap_or_default()
    }

    /// Max/min active-count ratio across shards on `ingress` (1.0 = perfectly
    /// balanced). `None` if the interface has no allocator yet.
    pub fn shard_skew(&self, ingress: u16) -> Option<f64> {
        self.allocators.get(&ingress).map(|a| a.skew())
    }

    /// The secret value shared with this AS's border routers.
    pub fn secret_value(&self) -> &SecretValue {
        &self.sv
    }

    /// The auth token object, once registered.
    pub fn auth_token(&self) -> Option<ObjectId> {
        self.auth_token
    }

    /// Produces the PKI possession proof for registration.
    pub(crate) fn registration_proof<R: Rng + ?Sized>(&self, rng: &mut R) -> Signature {
        crate::pki::sign_registration(&self.cert_key, self.as_id, self.account, rng)
    }

    /// Registers this AS with the asset contract.
    pub fn register<R: Rng + ?Sized>(
        &mut self,
        cp: &mut ControlPlane,
        rng: &mut R,
    ) -> CpResult<ObjectId> {
        let proof = self.registration_proof(rng);
        let receipt = cp.register_as(self.account, self.as_id, &proof)?;
        self.auth_token = Some(receipt.value);
        Ok(receipt)
    }

    /// Issues a bandwidth asset (must be registered first).
    pub fn issue_asset(
        &mut self,
        cp: &mut ControlPlane,
        asset: BandwidthAsset,
    ) -> CpResult<ObjectId> {
        let token = self
            .auth_token
            .ok_or_else(|| ExecError::Contract("AS not registered: no auth token".into()))?;
        cp.issue(self.account, token, asset)
    }

    /// Reservations this AS has granted so far.
    pub fn issued(&self) -> &[IssuedReservation] {
        &self.issued
    }

    /// Serves every pending redeem request addressed to this AS: assigns a
    /// ResID, derives `A_K` (Eq. 2), seals the payload to the requester's
    /// ephemeral key and posts the delivery transaction. Returns the
    /// delivery object IDs.
    pub fn process_requests<R: Rng + ?Sized>(
        &mut self,
        cp: &mut ControlPlane,
        rng: &mut R,
    ) -> Result<Vec<ObjectId>, ServiceError> {
        let pending = cp.pending_requests(self.account);
        let mut delivered = Vec::with_capacity(pending.len());
        for (request_id, request) in pending {
            let delivery = self.build_delivery(request_id, &request, rng)?;
            let receipt = cp.deliver_reservation(self.account, request_id, delivery)?;
            delivered.push(receipt.value);
        }
        Ok(delivered)
    }

    /// Builds the sealed reservation for one redeem request.
    fn build_delivery<R: Rng + ?Sized>(
        &mut self,
        request_id: ObjectId,
        request: &RedeemRequest,
        rng: &mut R,
    ) -> Result<EncryptedReservation, ServiceError> {
        let asset = &request.asset;
        let duration: u16 =
            asset.duration().try_into().map_err(|_| ServiceError::DurationTooLong)?;
        let res_start: u32 =
            asset.start_time.try_into().map_err(|_| ServiceError::StartTimeOutOfRange)?;
        // Grant at most the purchased bandwidth on the wire (round down).
        let bw_encoded =
            bwcls::encode_floor(asset.bandwidth_kbps).ok_or(ServiceError::BandwidthOutOfRange)?;

        let ranges = &self.shard_ranges;
        let allocator =
            self.allocators.entry(asset.interface).or_insert_with(|| ShardedFirstFit::new(ranges));
        let interval = Interval::new(asset.start_time, asset.expiry_time);
        let res_id = allocator.assign(interval).ok_or(ServiceError::ResIdsExhausted)?;

        let res_info = ResInfo {
            ingress: asset.interface,
            egress: request.egress_interface,
            res_id,
            bw_encoded,
            res_start,
            duration,
        };
        let key = self.sv.derive_key(&res_info);
        let payload = ReservationPayload { res_info, key: key.to_bytes() };
        let sealed = sealed::seal(&request.ephemeral_pk, &payload.encode(), rng);
        self.issued.push(IssuedReservation { res_info, granted_to: request.requester });
        self.renewals.insert(
            (asset.interface, res_id),
            RenewalEntry {
                generation: 0,
                interval,
                egress: request.egress_interface,
                bw_encoded,
                duration,
                granted_to: request.requester,
            },
        );
        Ok(EncryptedReservation { as_id: self.as_id, request: request_id, sealed })
    }

    /// Serves every pending renewal request in **one batched transaction**:
    /// accepted renewals extend the reservation's interval in place (same
    /// ResID, same hop set) and cost exactly two object touches each —
    /// delete the request, create the wrapped delivery; rejected requests
    /// are refunded their fee. This is the O(1)-per-renewal fast path: no
    /// market purchase, no asset splits, no re-coloring, no public-key
    /// crypto (the new `A_K` is wrapped under a ratchet of the previous
    /// one), and the gas-coin mutation is amortized over the whole batch.
    pub fn process_renewals<R: Rng + ?Sized>(
        &mut self,
        cp: &mut ControlPlane,
        rng: &mut R,
    ) -> Result<RenewalReport, ServiceError> {
        let pending = cp.pending_renewals(self.account);
        if pending.is_empty() {
            return Ok(RenewalReport::default());
        }
        // Off-chain work first: validate, extend the coloring state, wrap.
        let mut plan: Vec<(ObjectId, Address, u64, Option<RenewedReservation>)> =
            Vec::with_capacity(pending.len());
        for (request_id, req) in pending {
            let delivery = self.try_renew(&req, rng);
            plan.push((request_id, req.requester, req.fee, delivery));
        }
        let receipt = cp.exec(self.account, move |ctx| {
            let mut delivered = Vec::new();
            let mut rejected = 0usize;
            for (request_id, requester, fee, delivery) in plan {
                ctx.delete(request_id)?;
                match delivery {
                    Some(d) => {
                        delivered.push(ctx.create(
                            Owner::Address(requester),
                            TAG_RENEWED,
                            d.encode(),
                        ));
                    }
                    None => {
                        ctx.pay(requester, fee);
                        rejected += 1;
                    }
                }
            }
            Ok((delivered, rejected))
        })?;
        let (delivered, rejected) = receipt.value;
        Ok(RenewalReport { delivered, rejected })
    }

    /// Validates one renewal request and, if acceptable, extends the
    /// reservation by one more duration window and wraps the new key
    /// under the previous window's `A_K` ratchet. Returns `None`
    /// (refund) on any mismatch.
    fn try_renew<R: Rng + ?Sized>(
        &mut self,
        req: &RenewalRequest,
        rng: &mut R,
    ) -> Option<RenewedReservation> {
        let key = (req.ingress, req.res_id);
        let entry = self.renewals.get(&key)?;
        if entry.generation != req.generation || entry.granted_to != req.requester {
            return None;
        }
        let old_iv = entry.interval;
        let new_end = old_iv.end.checked_add(u64::from(entry.duration))?;
        // The renewed window starts where the current one ends.
        let res_start: u32 = old_iv.end.try_into().ok()?;
        let allocator = self.allocators.get_mut(&req.ingress)?;
        if !allocator.try_extend(req.res_id, &old_iv, new_end) {
            return None; // successor conflict: fall back to a fresh purchase
        }
        let entry = self.renewals.get_mut(&key).expect("entry checked above");
        entry.interval.end = new_end;
        entry.generation += 1;
        let generation = entry.generation;
        let res_info = ResInfo {
            ingress: req.ingress,
            egress: entry.egress,
            res_id: req.res_id,
            bw_encoded: entry.bw_encoded,
            res_start,
            duration: entry.duration,
        };
        // The window being extended always covers
        // `[old end - duration, old end)`, so its A_K — the shared secret
        // the wrap key ratchets from — re-derives from SV alone.
        let prev_info = ResInfo { res_start: res_start - u32::from(entry.duration), ..res_info };
        let prev_ak = self.sv.derive_key(&prev_info);
        let wrap = renewal_wrap_key(&prev_ak.to_bytes(), generation);
        let ak = self.sv.derive_key(&res_info);
        let payload = ReservationPayload { res_info, key: ak.to_bytes() };
        let boxed = sealed::seal_with_key(&wrap, &payload.encode(), rng);
        Some(RenewedReservation {
            as_id: self.as_id,
            ingress: req.ingress,
            res_id: req.res_id,
            generation,
            boxed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let p = ReservationPayload {
            res_info: ResInfo {
                ingress: 1,
                egress: 2,
                res_id: 77,
                bw_encoded: 200,
                res_start: 1_700_000_000,
                duration: 600,
            },
            key: [9u8; 16],
        };
        assert_eq!(ReservationPayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn payload_rejects_truncation() {
        let p = ReservationPayload {
            res_info: ResInfo {
                ingress: 0,
                egress: 0,
                res_id: 0,
                bw_encoded: 0,
                res_start: 0,
                duration: 0,
            },
            key: [0u8; 16],
        };
        let bytes = p.encode();
        assert!(ReservationPayload::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
