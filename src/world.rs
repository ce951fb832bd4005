//! An in-process Hummingbird world: one object, every layer wired up.
//!
//! The [`World`] combines the blockchain control plane, per-AS
//! Hummingbird services, the marketplace, end-host clients and the
//! discrete-event network simulator into one coherent deployment over a
//! linear AS chain — the full life of a reservation from `issue` on chain
//! to prioritized packets at simulated border routers.

use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::{
    AsService, BandwidthAsset, Client, ControlPlane, Direction, GrantedReservation, PurchaseSpec,
};
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::{RouterConfig, SourceGenerator, SourceReservation};
use hummingbird_ledger::{Address, ExecError, ObjectId};
use hummingbird_netsim::{LinearTopology, LinkSpec, TopologyBuilder};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors from world orchestration.
#[derive(Debug)]
pub enum WorldError {
    /// A control-plane transaction failed.
    Exec(ExecError),
    /// The AS service could not serve a redeem request.
    Service(hummingbird_control::ServiceError),
    /// No listing pair matches the request on some hop.
    NoMatchingListing {
        /// Index of the hop without inventory.
        hop: usize,
    },
    /// A granted reservation did not match the path hop.
    Gen(hummingbird_dataplane::GenError),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Exec(e) => write!(f, "control plane: {e}"),
            WorldError::Service(e) => write!(f, "AS service: {e}"),
            WorldError::NoMatchingListing { hop } => {
                write!(f, "no matching ingress/egress listing pair at hop {hop}")
            }
            WorldError::Gen(e) => write!(f, "generator: {e}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<ExecError> for WorldError {
    fn from(e: ExecError) -> Self {
        WorldError::Exec(e)
    }
}
impl From<hummingbird_control::ServiceError> for WorldError {
    fn from(e: hummingbird_control::ServiceError) -> Self {
        WorldError::Service(e)
    }
}
impl From<hummingbird_dataplane::GenError> for WorldError {
    fn from(e: hummingbird_dataplane::GenError) -> Self {
        WorldError::Gen(e)
    }
}

/// Configuration of a world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of ASes in the chain.
    pub n_ases: usize,
    /// Link parameters for the inter-AS links.
    pub link: LinkSpec,
    /// Border-router configuration.
    pub router: RouterConfig,
    /// Simulation epoch (Unix seconds). All reservations and packets are
    /// timestamped relative to this.
    pub start_unix_s: u64,
    /// Marketplace ask price, MIST per kbps·second.
    pub price_per_kbps_sec: u64,
    /// ResID cap per ingress interface at every AS.
    pub res_id_cap: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            n_ases: 3,
            link: LinkSpec::default(),
            router: RouterConfig::default(),
            start_unix_s: 1_700_000_000,
            price_per_kbps_sec: 1,
            res_id_cap: 100_000,
            seed: 42,
        }
    }
}

/// The assembled deployment.
pub struct World {
    /// The blockchain control plane.
    pub control: ControlPlane,
    /// One Hummingbird service per AS (index = hop position).
    pub services: Vec<AsService>,
    /// The marketplace object.
    pub market: ObjectId,
    /// The simulated AS chain (routers share secrets with `services`).
    pub topo: TopologyBuilder,
    /// Deployment configuration.
    pub cfg: WorldConfig,
    /// Deterministic RNG for control-plane crypto.
    pub rng: StdRng,
}

impl World {
    /// AS identifier of hop `i` (ISD 1, ASN `0x1000 + i`).
    pub fn as_id(i: usize) -> IsdAs {
        IsdAs::new(1, 0x1000 + i as u64)
    }

    /// Builds a world: registers every AS with the asset contract,
    /// creates the marketplace, and wires the same data-plane secrets into
    /// the simulated routers.
    pub fn build(cfg: WorldConfig) -> Result<Self, WorldError> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.n_ases;

        // Key material per AS.
        let mut hop_keys = Vec::with_capacity(n);
        let mut sv_keys = Vec::with_capacity(n);
        let mut cert_keys = Vec::with_capacity(n);
        for i in 0..n {
            let mut hk = [0u8; 16];
            hk[0] = 0x70;
            hk[1] = i as u8;
            hk[15] = cfg.seed as u8;
            hop_keys.push(hk);
            let mut sk = [0u8; 16];
            sk[0] = 0x80;
            sk[1] = i as u8;
            sk[15] = cfg.seed as u8;
            sv_keys.push(sk);
            cert_keys.push(SecretKey::from_seed(format!("as-cert-{}-{}", cfg.seed, i).as_bytes()));
        }

        // PKI anchors + control plane.
        let mut anchors = TrustAnchors::new();
        for (i, ck) in cert_keys.iter().enumerate() {
            anchors.install(Self::as_id(i), ck.public());
        }
        let mut control = ControlPlane::new(anchors);

        // AS services: register + become sellers.
        let mut services = Vec::with_capacity(n);
        for (i, ck) in cert_keys.into_iter().enumerate() {
            let mut service = AsService::new(Self::as_id(i), ck, sv_keys[i], cfg.res_id_cap);
            control.faucet(service.account, 10_000);
            service.register(&mut control, &mut rng)?;
            services.push(service);
        }
        let market = control.create_marketplace(services[0].account)?.value;
        for service in &services {
            control.register_seller(service.account, market)?;
        }

        // Simulated network with the same secrets.
        let topo = LinearTopology::build_with_keys(
            n,
            cfg.link,
            cfg.start_unix_s * 1_000_000_000,
            cfg.router,
            hop_keys,
            sv_keys,
        )
        .net;

        Ok(World { control, services, market, topo, cfg, rng })
    }

    /// Has every AS issue and list a matching ingress/egress asset pair
    /// covering `[start, end)` at `bw_kbps` on its chain interfaces.
    /// Returns the listing IDs per hop as `(ingress, egress)`.
    pub fn stock_market(
        &mut self,
        bw_kbps: u64,
        start: u64,
        end: u64,
        granularity_s: u64,
        min_bw_kbps: u64,
    ) -> Result<Vec<(ObjectId, ObjectId)>, WorldError> {
        let n = self.cfg.n_ases;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (ingress_if, egress_if) = LinearTopology::interfaces(n, i);
            let template = |interface: u16, direction: Direction| BandwidthAsset {
                as_id: Self::as_id(i),
                bandwidth_kbps: bw_kbps,
                start_time: start,
                expiry_time: end,
                interface,
                direction,
                time_granularity: granularity_s,
                min_bandwidth_kbps: min_bw_kbps,
            };
            let account = self.services[i].account;
            let ing_asset = self.services[i]
                .issue_asset(&mut self.control, template(ingress_if, Direction::Ingress))?
                .value;
            let eg_asset = self.services[i]
                .issue_asset(&mut self.control, template(egress_if, Direction::Egress))?
                .value;
            let price = self.cfg.price_per_kbps_sec;
            let l_in = self.control.create_listing(account, self.market, ing_asset, price)?.value;
            let l_eg = self.control.create_listing(account, self.market, eg_asset, price)?.value;
            out.push((l_in, l_eg));
        }
        Ok(out)
    }

    /// Creates and funds a client account.
    pub fn new_client(&mut self, label: &str, sui: u64) -> Client {
        let account = Address::from_label(label);
        self.control.faucet(account, sui);
        Client::new(account)
    }

    /// The full paper workflow for one client: find matching listings on
    /// every hop, atomically buy-and-redeem the whole path in one
    /// transaction, let every AS deliver its sealed reservation, collect
    /// and decrypt, and return the granted reservations in hop order.
    pub fn acquire_path(
        &mut self,
        client: &mut Client,
        spec: PurchaseSpec,
    ) -> Result<Vec<GrantedReservation>, WorldError> {
        let hops: Vec<usize> = (0..self.cfg.n_ases).collect();
        let grants = self.acquire_hops(client, spec, &hops)?;
        Ok(grants.into_iter().map(|(_, g)| g).collect())
    }

    /// The `(ingress, egress, spec)` purchase of every hop in
    /// `hop_indices`, in that order: per hop, the first market listing on
    /// the AS's chain interface in each direction whose asset covers
    /// `spec`.
    pub fn hop_listings(
        &self,
        spec: PurchaseSpec,
        hop_indices: &[usize],
    ) -> Result<Vec<(ObjectId, ObjectId, PurchaseSpec)>, WorldError> {
        let n = self.cfg.n_ases;
        let listings = self.control.listings(self.market);
        let hop = |i: usize| {
            let missing = WorldError::NoMatchingListing { hop: i };
            if i >= n {
                return Err(missing);
            }
            let (ingress_if, egress_if) = LinearTopology::interfaces(n, i);
            let find = |interface: u16, direction: Direction| {
                listings
                    .iter()
                    .find(|(_, _, a)| {
                        a.as_id == Self::as_id(i)
                            && a.interface == interface
                            && a.direction == direction
                            && a.start_time <= spec.start
                            && a.expiry_time >= spec.end
                            && a.bandwidth_kbps >= spec.bandwidth_kbps
                    })
                    .map(|(id, _, _)| *id)
            };
            match (find(ingress_if, Direction::Ingress), find(egress_if, Direction::Egress)) {
                (Some(ingress), Some(egress)) => Ok((ingress, egress, spec)),
                _ => Err(missing),
            }
        };
        hop_indices.iter().map(|&i| hop(i)).collect()
    }

    /// Acquires reservations for a *subset* of the path's hops — the
    /// partial-reservation mode of §3.3 (❸): reserve only the hops you
    /// expect to be congested; the rest of the path stays best effort.
    /// Returns `(hop index, grant)` pairs in hop order.
    pub fn acquire_hops(
        &mut self,
        client: &mut Client,
        spec: PurchaseSpec,
        hop_indices: &[usize],
    ) -> Result<Vec<(usize, GrantedReservation)>, WorldError> {
        let n = self.cfg.n_ases;
        let hops = self.hop_listings(spec, hop_indices)?;
        client.buy_and_redeem_path(&mut self.control, self.market, &hops, &mut self.rng)?;
        let before = client.reservations().len();
        for service in self.services.iter_mut() {
            service.process_requests(&mut self.control, &mut self.rng)?;
        }
        client.collect_deliveries(&self.control)?;
        let granted = &client.reservations()[before..];
        let mut out = Vec::with_capacity(hop_indices.len());
        for &i in hop_indices {
            let (ingress_if, _) = LinearTopology::interfaces(n, i);
            let g = granted
                .iter()
                .find(|g| g.as_id == Self::as_id(i) && g.res_info.ingress == ingress_if)
                .ok_or(WorldError::NoMatchingListing { hop: i })?;
            out.push((i, g.clone()));
        }
        Ok(out)
    }

    /// Builds a data-plane source generator with reservations attached
    /// only on the given hops (partial path protection).
    pub fn make_partially_reserved_generator(
        &self,
        src: IsdAs,
        dst: IsdAs,
        grants: &[(usize, GrantedReservation)],
    ) -> Result<SourceGenerator, WorldError> {
        let path: Vec<usize> = (0..self.cfg.n_ases).collect();
        let mut generator = self.topo.generator(&path, src, dst);
        for (hop, g) in grants {
            generator.attach_reservation(
                *hop,
                SourceReservation { res_info: g.res_info, key: g.key.clone() },
            )?;
        }
        Ok(generator)
    }

    /// Builds a data-plane source generator with `granted` reservations
    /// attached to every hop — ready to inject into the simulator.
    pub fn make_reserved_generator(
        &self,
        src: IsdAs,
        dst: IsdAs,
        granted: &[GrantedReservation],
    ) -> Result<SourceGenerator, WorldError> {
        let grants: Vec<(usize, GrantedReservation)> =
            granted.iter().cloned().enumerate().collect();
        self.make_partially_reserved_generator(src, dst, &grants)
    }
}
