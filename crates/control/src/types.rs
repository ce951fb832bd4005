//! On-chain object types for the Hummingbird control plane (paper §4.2).

use hummingbird_crypto::sealed::SealedBox;
use hummingbird_crypto::sig::PublicKey;
use hummingbird_ledger::codec::{DecodeError, Reader, Writer};
use hummingbird_ledger::{Address, ObjectId};
use hummingbird_wire::IsdAs;

/// Type tag of bandwidth assets.
pub const TAG_ASSET: &str = "hummingbird::asset::BandwidthAsset";
/// Type tag of AS authorization tokens.
pub(crate) const TAG_AUTH_TOKEN: &str = "hummingbird::asset::AuthToken";
/// Type tag of redeem requests.
pub(crate) const TAG_REDEEM: &str = "hummingbird::asset::RedeemRequest";
/// Type tag of encrypted reservation deliveries.
pub(crate) const TAG_DELIVERY: &str = "hummingbird::asset::EncryptedReservation";
/// Type tag of the marketplace shared object.
pub(crate) const TAG_MARKET: &str = "hummingbird::market::Marketplace";
/// Type tag of seller registrations.
pub(crate) const TAG_SELLER: &str = "hummingbird::market::Seller";
/// Type tag of listings.
pub(crate) const TAG_LISTING: &str = "hummingbird::market::Listing";
/// Type tag of the simulated Sui gas coin mutated by every transaction.
pub(crate) const TAG_GAS_COIN: &str = "sui::coin::Coin<SUI>";

/// Whether an asset reserves an interface as ingress or egress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The interface is the reservation's ingress.
    Ingress,
    /// The interface is the reservation's egress.
    Egress,
}

impl Direction {
    fn encode(self) -> u8 {
        match self {
            Direction::Ingress => 0,
            Direction::Egress => 1,
        }
    }

    fn decode(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(Direction::Ingress),
            1 => Ok(Direction::Egress),
            _ => Err(DecodeError),
        }
    }
}

/// A tradable bandwidth asset (§4.2, "Asset Representation").
///
/// Each asset is a voucher for reserved bandwidth on *one* interface of the
/// issuing AS, in one direction, over one time window. A matching
/// ingress/egress pair is redeemed for a data-plane reservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BandwidthAsset {
    /// The AS offering the reservation (set during issuance from the
    /// issuer's auth token).
    pub as_id: IsdAs,
    /// Reserved bandwidth in kbps.
    pub bandwidth_kbps: u64,
    /// Start of validity (Unix seconds).
    pub start_time: u64,
    /// End of validity (Unix seconds, exclusive).
    pub expiry_time: u64,
    /// Interface ID at the issuing AS.
    pub interface: u16,
    /// Ingress or egress use of that interface.
    pub direction: Direction,
    /// Minimum duration quantum for splits, seconds.
    pub time_granularity: u64,
    /// Minimum bandwidth of any split piece, kbps.
    pub min_bandwidth_kbps: u64,
}

impl BandwidthAsset {
    /// Duration of the asset in seconds.
    pub fn duration(&self) -> u64 {
        self.expiry_time - self.start_time
    }

    /// Validates the asset invariants enforced at issuance.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.expiry_time <= self.start_time {
            return Err("expiry must be after start".into());
        }
        if self.time_granularity == 0 {
            return Err("time granularity must be positive".into());
        }
        if !self.duration().is_multiple_of(self.time_granularity) {
            return Err("duration must be a multiple of the time granularity".into());
        }
        if self.min_bandwidth_kbps == 0 {
            return Err("minimum bandwidth must be positive".into());
        }
        if self.bandwidth_kbps < self.min_bandwidth_kbps {
            return Err("bandwidth below the asset's minimum".into());
        }
        Ok(())
    }

    /// Whether two assets are redeemable as an ingress/egress pair:
    /// same AS, same window, same bandwidth, opposite directions (§4.2,
    /// "Asset Redemption").
    pub fn matches_for_redeem(&self, other: &BandwidthAsset) -> bool {
        self.as_id == other.as_id
            && self.bandwidth_kbps == other.bandwidth_kbps
            && self.start_time == other.start_time
            && self.expiry_time == other.expiry_time
            && self.direction != other.direction
    }

    /// Serializes to the on-chain byte representation. A short display
    /// string pads the object to a size comparable to the Move/BCS object
    /// the paper's contracts store, so the storage-gas numbers land in the
    /// same regime as Table 2.
    pub fn encode(&self) -> Vec<u8> {
        let display = format!(
            "Hummingbird bandwidth reservation voucher: AS {} if {} {:?} {} kbps [{}, {})",
            self.as_id,
            self.interface,
            self.direction,
            self.bandwidth_kbps,
            self.start_time,
            self.expiry_time
        );
        let mut w = Writer::with_capacity(57 + display.len());
        w.u16(self.as_id.isd);
        w.u64(self.as_id.asn);
        w.u64(self.bandwidth_kbps);
        w.u64(self.start_time);
        w.u64(self.expiry_time);
        w.u16(self.interface);
        w.u8(self.direction.encode());
        w.u64(self.time_granularity);
        w.u64(self.min_bandwidth_kbps);
        w.var_bytes(display.as_bytes());
        w.finish()
    }

    /// Parses the on-chain byte representation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let asset = BandwidthAsset {
            as_id: IsdAs::new(r.u16()?, r.u64()?),
            bandwidth_kbps: r.u64()?,
            start_time: r.u64()?,
            expiry_time: r.u64()?,
            interface: r.u16()?,
            direction: Direction::decode(r.u8()?)?,
            time_granularity: r.u64()?,
            min_bandwidth_kbps: r.u64()?,
        };
        let _display = r.var_slice()?;
        r.finish()?;
        Ok(asset)
    }
}

/// Authorization token minted at AS registration (§4.2, "AS Registration").
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct AuthToken {
    /// The AS this token authorizes to issue assets.
    pub as_id: IsdAs,
}

impl AuthToken {
    /// Serializes the token.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.as_id.isd);
        w.u64(self.as_id.asn);
        w.finish()
    }

    /// Parses the token.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let t = AuthToken { as_id: IsdAs::new(r.u16()?, r.u64()?) };
        r.finish()?;
        Ok(t)
    }
}

/// A redeem request wrapping an ingress/egress asset pair plus the host's
/// ephemeral public key (§4.2 steps ❺-❻).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedeemRequest {
    /// Who redeemed (receives the encrypted reservation).
    pub requester: Address,
    /// Ephemeral public key for sealing the response.
    pub ephemeral_pk: PublicKey,
    /// Wrapped ingress asset object.
    pub ingress_asset: ObjectId,
    /// Wrapped egress asset object.
    pub egress_asset: ObjectId,
    /// Copy of the redeemed reservation parameters (AS, window, bandwidth,
    /// interfaces) so the AS can serve the request without extra reads.
    pub asset: BandwidthAsset,
    /// Egress interface (the `asset` field holds the ingress view).
    pub egress_interface: u16,
}

impl RedeemRequest {
    /// Serializes the request.
    pub fn encode(&self) -> Vec<u8> {
        let asset = self.asset.encode();
        let mut w = Writer::with_capacity(118 + asset.len());
        w.bytes(&self.requester.0);
        w.bytes(&self.ephemeral_pk.to_bytes());
        w.bytes(&self.ingress_asset.0);
        w.bytes(&self.egress_asset.0);
        w.var_bytes(&asset);
        w.u16(self.egress_interface);
        w.finish()
    }

    /// Parses the request.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let requester = Address(r.array::<32>()?);
        let pk_bytes = r.array::<16>()?;
        let ephemeral_pk = PublicKey::from_bytes(&pk_bytes).ok_or(DecodeError)?;
        let ingress_asset = ObjectId(r.array::<32>()?);
        let egress_asset = ObjectId(r.array::<32>()?);
        let asset = BandwidthAsset::decode(r.var_slice()?)?;
        let egress_interface = r.u16()?;
        r.finish()?;
        Ok(RedeemRequest {
            requester,
            ephemeral_pk,
            ingress_asset,
            egress_asset,
            asset,
            egress_interface,
        })
    }
}

/// The sealed reservation delivery (§4.2 steps ❼-❽).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedReservation {
    /// The issuing AS.
    pub as_id: IsdAs,
    /// The redeem request this delivery answers. Public information (the
    /// request is on chain), but it lets the recipient pick the matching
    /// ephemeral key directly instead of trial-decrypting against every
    /// in-flight request.
    pub request: ObjectId,
    /// Sealed `(ResInfo, A_K)` payload.
    pub sealed: SealedBox,
}

impl EncryptedReservation {
    /// Serializes the delivery.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(94 + self.sealed.ciphertext.len());
        w.u16(self.as_id.isd);
        w.u64(self.as_id.asn);
        w.bytes(&self.request.0);
        w.bytes(&self.sealed.ephemeral.to_bytes());
        w.bytes(&self.sealed.nonce);
        w.var_bytes(&self.sealed.ciphertext);
        w.bytes(&self.sealed.tag);
        w.finish()
    }

    /// Parses the delivery.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let as_id = IsdAs::new(r.u16()?, r.u64()?);
        let request = ObjectId(r.array::<32>()?);
        let eph = PublicKey::from_bytes(&r.array::<16>()?).ok_or(DecodeError)?;
        let nonce = r.array::<16>()?;
        let ciphertext = r.var_bytes()?;
        let tag = r.array::<16>()?;
        r.finish()?;
        Ok(EncryptedReservation {
            as_id,
            request,
            sealed: SealedBox { ephemeral: eph, nonce, ciphertext, tag },
        })
    }
}

/// A marketplace listing: an escrowed asset plus its ask price.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Listing {
    /// Seller who receives the payment.
    pub seller: Address,
    /// The escrowed asset object.
    pub asset: ObjectId,
    /// Price in MIST per kbps·second of bandwidth-time.
    pub price_per_kbps_sec: u64,
}

impl Listing {
    /// Serializes the listing.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(72);
        w.bytes(&self.seller.0);
        w.bytes(&self.asset.0);
        w.u64(self.price_per_kbps_sec);
        w.finish()
    }

    /// Parses the listing.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let l = Listing {
            seller: Address(r.array::<32>()?),
            asset: ObjectId(r.array::<32>()?),
            price_per_kbps_sec: r.u64()?,
        };
        r.finish()?;
        Ok(l)
    }

    /// Price of a `[start, end)` window at `bw` kbps.
    pub fn price(&self, bw_kbps: u64, start: u64, end: u64) -> u64 {
        self.price_per_kbps_sec.saturating_mul(bw_kbps).saturating_mul(end.saturating_sub(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummingbird_crypto::sig::SecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn sample_asset(dir: Direction) -> BandwidthAsset {
        BandwidthAsset {
            as_id: IsdAs::new(1, 0xff00_0000_0110),
            bandwidth_kbps: 10_000,
            start_time: 1000,
            expiry_time: 4600,
            interface: 3,
            direction: dir,
            time_granularity: 60,
            min_bandwidth_kbps: 100,
        }
    }

    #[test]
    fn asset_roundtrip() {
        let a = sample_asset(Direction::Ingress);
        assert_eq!(BandwidthAsset::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn asset_size_is_in_the_sui_regime() {
        // Storage pricing depends on size; keep it in the 150-400 B band so
        // Table 2 magnitudes hold.
        let len = sample_asset(Direction::Egress).encode().len();
        assert!((150..400).contains(&len), "asset encodes to {len} bytes");
    }

    #[test]
    fn invariants_catch_bad_assets() {
        let good = sample_asset(Direction::Ingress);
        assert!(good.check_invariants().is_ok());
        let mut bad = good.clone();
        bad.expiry_time = bad.start_time;
        assert!(bad.check_invariants().is_err());
        let mut bad = good.clone();
        bad.expiry_time = bad.start_time + 61; // not a granularity multiple
        assert!(bad.check_invariants().is_err());
        let mut bad = good.clone();
        bad.bandwidth_kbps = 50; // below min
        assert!(bad.check_invariants().is_err());
        let mut bad = good;
        bad.time_granularity = 0;
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn redeem_matching_requires_opposite_directions() {
        let ing = sample_asset(Direction::Ingress);
        let eg = sample_asset(Direction::Egress);
        assert!(ing.matches_for_redeem(&eg));
        assert!(!ing.matches_for_redeem(&ing));
        let mut eg2 = eg.clone();
        eg2.bandwidth_kbps += 1;
        assert!(!ing.matches_for_redeem(&eg2));
        let mut eg3 = eg;
        eg3.start_time += 1;
        assert!(!ing.matches_for_redeem(&eg3));
    }

    #[test]
    fn redeem_request_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let pk = SecretKey::generate(&mut rng).public();
        let req = RedeemRequest {
            requester: Address::from_label("host"),
            ephemeral_pk: pk,
            ingress_asset: ObjectId([1u8; 32]),
            egress_asset: ObjectId([2u8; 32]),
            asset: sample_asset(Direction::Ingress),
            egress_interface: 9,
        };
        assert_eq!(RedeemRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn delivery_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&mut rng);
        let sealed = hummingbird_crypto::sealed::seal(&sk.public(), b"payload", &mut rng);
        let d =
            EncryptedReservation { as_id: IsdAs::new(4, 44), request: ObjectId([9; 32]), sealed };
        assert_eq!(EncryptedReservation::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn listing_roundtrip_and_pricing() {
        let l = Listing {
            seller: Address::from_label("as-1"),
            asset: ObjectId([9u8; 32]),
            price_per_kbps_sec: 3,
        };
        assert_eq!(Listing::decode(&l.encode()).unwrap(), l);
        // 100 kbps for 60 s at 3 MIST/kbps-s = 18 000 MIST.
        assert_eq!(l.price(100, 40, 100), 18_000);
    }

    #[test]
    fn auth_token_roundtrip() {
        let t = AuthToken { as_id: IsdAs::new(7, 70) };
        assert_eq!(AuthToken::decode(&t.encode()).unwrap(), t);
    }
}
