//! The two control-plane workloads: one ledger, one `AsService` aligned
//! to an 8-shard `ShardMap`, one marketplace — the `control_scale` flow
//! re-expressed over the public API. The data plane does nothing here.
//!
//! * `control_lifecycle` — admission. Operations are reservations
//!   admitted in waves of 5 000 (every 8th purchase a time-split);
//!   latency samples are wave-1 admits, the interactive path. The two
//!   use the ledger differently (one `process_requests` tx per wave vs
//!   six small txs per reservation), so a batching gain that costs the
//!   wave-1 path shows.
//! * `control_steady` — the live control plane. Operations are
//!   renewals through the O(1) fast path over every live reservation;
//!   latency samples are whole 256-auction × 4-bidder epochs (create,
//!   commit, close, reveal, clear).
//!
//! Like every workload they are sized by count, not by the clock — and
//! here it matters most: the ledger and the clients keep what they
//! admit, so a time-sized loop would turn every speed-up into more
//! memory and a slower ledger.

use crate::json::Value;
use crate::layers::{apply_span_metrics, SWEEP_PASSES};
use crate::metrics::Layers;
use crate::trace::Recorder;
use crate::workload::{Rep, Workload};
use hummingbird_coloring::{Interval, ShardedFirstFit};
use hummingbird_control::auction::{TAG_AUCTION, TAG_BID};
use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::types::TAG_ASSET;
use hummingbird_control::{
    bid_commitment, AsService, BandwidthAsset, ClearingEngine, Client, ControlPlane, Direction,
    PurchaseSpec,
};
use hummingbird_crypto::sealed;
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::runtime::{ShardMap, Steering};
use hummingbird_ledger::{Address, ObjectId};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const HOUR: u64 = 3600;
const BW_KBPS: u64 = 1000;
const RENEW_FEE: u64 = 100;
const RESERVE_PRICE: u64 = 500;
const BIDDERS: usize = 4;
const SHARDS: usize = 8;
const INGRESS_IF: u16 = 1;
const EGRESS_IF: u16 = 2;
const AS_ID: IsdAs = IsdAs::new(1, 0x1_0001);
/// ResIDs per ingress interface: room for every reservation a full-size
/// run admits, twice over.
const RES_ID_CAP: u32 = 1 << 19;

fn asset(dir: Direction, interface: u16, start: u64, end: u64) -> BandwidthAsset {
    BandwidthAsset {
        as_id: AS_ID,
        bandwidth_kbps: BW_KBPS,
        start_time: start,
        expiry_time: end,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    }
}

fn bwt(a: &BandwidthAsset) -> u128 {
    u128::from(a.bandwidth_kbps) * u128::from(a.expiry_time - a.start_time)
}

/// Ledger counters at one instant, for per-phase deltas.
#[derive(Clone, Copy)]
struct Mark {
    txs: u64,
    gas: i128,
}

/// Counts a phase accumulates across repetitions.
#[derive(Clone, Copy, Default)]
struct PhaseTotals {
    ops: u64,
    txs: u64,
    gas: i128,
    wall_s: f64,
}

impl PhaseTotals {
    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.max(1) as f64
    }
}

/// One registered AS, its marketplace and its clients.
struct World {
    cp: ControlPlane,
    service: AsService,
    market: ObjectId,
    rng: StdRng,
    clients: Vec<Client>,
    bidders: Vec<Address>,
    admitted: u64,
    issued_bwt: u128,
    redeemed_bwt: u128,
    /// `[start, end)` of every admitted reservation, for the coloring
    /// replay.
    intervals: Vec<Interval>,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cert_key = SecretKey::from_seed(&seed.to_be_bytes());
        let mut anchors = TrustAnchors::new();
        anchors.install(AS_ID, cert_key.public());
        let mut cp = ControlPlane::new(anchors);
        let mut service = AsService::new(AS_ID, cert_key, rng.gen(), RES_ID_CAP);
        service.align_with_shard_map(&ShardMap::new(SHARDS, RES_ID_CAP, Steering::ByReservation));
        cp.faucet(service.account, 10_000_000);
        service.register(&mut cp, &mut rng).expect("AS registration");
        let market = cp.create_marketplace(service.account).expect("marketplace").value;
        cp.register_seller(service.account, market).expect("seller registration");
        World {
            cp,
            service,
            market,
            rng,
            clients: Vec::new(),
            bidders: Vec::new(),
            admitted: 0,
            issued_bwt: 0,
            redeemed_bwt: 0,
            intervals: Vec::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark { txs: self.cp.ledger.tx_count(), gas: self.cp.ledger.gas_burned() }
    }

    fn new_client(&mut self) -> usize {
        let label = format!("client-{}", self.clients.len());
        let client = Client::new(Address::from_label(&label));
        self.cp.faucet(client.account, 100_000);
        self.clients.push(client);
        self.clients.len() - 1
    }

    /// Admits `n` reservations for client `c` as one wave, the full
    /// paper flow: issue an ingress/egress asset pair, list both, buy
    /// and redeem the path atomically (every 8th purchase slices half a
    /// 2-hour asset), then the AS serves the wave's requests in one
    /// batch, the client collects its sealed deliveries and sweeps them
    /// for the rebate.
    fn admit(&mut self, c: usize, n: u64, rec: &mut Recorder) -> Result<(), String> {
        let World { cp, service, market, rng, clients, .. } = self;
        let client = &mut clients[c];
        let err = |what: &str, e: &dyn std::fmt::Debug| format!("{what}: {e:?}");
        for i in 0..n {
            let op = self.admitted + i;
            let wide = op.is_multiple_of(8);
            let end = if wide { 2 * HOUR } else { HOUR };
            let a_in = asset(Direction::Ingress, INGRESS_IF, 0, end);
            let a_eg = asset(Direction::Egress, EGRESS_IF, 0, end);
            self.issued_bwt += bwt(&a_in) + bwt(&a_eg);
            let ing = rec
                .span("control.issue_asset", op, 1, |_| service.issue_asset(cp, a_in))
                .map_err(|e| err("issue ingress", &e))?
                .value;
            let eg = rec
                .span("control.issue_asset", op, 1, |_| service.issue_asset(cp, a_eg))
                .map_err(|e| err("issue egress", &e))?
                .value;
            let account = service.account;
            let l_in = rec
                .span("control.create_listing", op, 1, |_| {
                    cp.create_listing(account, *market, ing, 1)
                })
                .map_err(|e| err("list ingress", &e))?
                .value;
            let l_eg = rec
                .span("control.create_listing", op, 1, |_| {
                    cp.create_listing(account, *market, eg, 1)
                })
                .map_err(|e| err("list egress", &e))?
                .value;
            let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: BW_KBPS };
            rec.span("control.buy_and_redeem", op, 1, |_| {
                client.buy_and_redeem_path(cp, *market, &[(l_in, l_eg, spec)], rng)
            })
            .map_err(|e| err("buy and redeem", &e))?;
            self.redeemed_bwt += 2 * u128::from(BW_KBPS) * u128::from(HOUR);
            self.intervals.push(Interval::new(0, HOUR));
        }
        rec.span("control.process_requests", self.admitted, n, |_| {
            service.process_requests(cp, rng)
        })
        .map_err(|e| err("process requests", &e))?;
        let got = rec
            .span("control.collect_deliveries", self.admitted, n, |_| client.collect_deliveries(cp))
            .map_err(|e| err("collect deliveries", &e))?;
        rec.span("control.sweep", self.admitted, n, |_| client.sweep_collected(cp))
            .map_err(|e| err("sweep deliveries", &e))?;
        self.admitted += n;
        if got as u64 != n {
            return Err(format!("wave delivered {got}/{n}"));
        }
        Ok(())
    }

    /// The conservation invariants of `control_scale`, recomputed from
    /// a scan of every committed object. Returns `(checked, failed)`.
    fn check_invariants(&self, failures: &mut Vec<String>) -> (u64, u64) {
        let mut live_bwt: u128 = 0;
        let mut auction_objects = 0u64;
        for e in self.cp.ledger.objects() {
            if e.meta.type_tag == TAG_ASSET {
                match BandwidthAsset::decode(&e.data) {
                    Ok(a) => live_bwt += bwt(&a),
                    Err(err) => failures.push(format!("asset decode: {err:?}")),
                }
            } else if e.meta.type_tag == TAG_AUCTION || e.meta.type_tag == TAG_BID {
                auction_objects += 1;
            }
        }
        let before = failures.len();
        // 1. Bandwidth × time: issued = live + redeemed.
        if self.issued_bwt != live_bwt + self.redeemed_bwt {
            failures.push(format!(
                "bandwidth x time: issued {} != live {live_bwt} + redeemed {}",
                self.issued_bwt, self.redeemed_bwt
            ));
        }
        // 2. Coin supply: minted = supply + net burned gas, to the MIST.
        let ledger = &self.cp.ledger;
        let (minted, supply) = (ledger.total_minted() as i128, ledger.total_supply() as i128);
        if minted != supply + ledger.gas_burned() {
            failures.push(format!(
                "coins: minted {minted} != supply {supply} + burned {}",
                ledger.gas_burned()
            ));
        }
        // 3. Steering: ResIDs spread over the data-plane shards.
        let loads = self.service.shard_loads(INGRESS_IF);
        let skew = self.service.shard_skew(INGRESS_IF).unwrap_or(f64::INFINITY);
        if loads.iter().sum::<usize>() as u64 != self.admitted || skew > 1.1 {
            failures.push(format!(
                "steering: loads {loads:?} (skew {skew:.3}) vs {} admitted",
                self.admitted
            ));
        }
        // 4. (renewal keys are checked per round, where they are made)
        // 5. No MIST stranded outside the participants; escrows drained.
        let known: u128 = std::iter::once(self.service.account)
            .chain(self.clients.iter().map(|c| c.account))
            .chain(self.bidders.iter().copied())
            .map(|a| u128::from(ledger.balance(a)))
            .sum();
        if auction_objects != 0 || known != ledger.total_supply() {
            failures.push(format!(
                "escrows: {auction_objects} auction/bid objects remain, known {known} vs supply {}",
                ledger.total_supply()
            ));
        }
        (4, (failures.len() - before) as u64)
    }

    /// Ledger and allocator state metrics shared by both workloads.
    fn state_layers(&mut self, rec: &mut Recorder, out: &mut Layers) {
        let ledger = &self.cp.ledger;
        out.set("ledger.objects", ledger.object_count() as f64);
        out.set(
            "ledger.bytes_per_reservation",
            ledger.total_object_bytes() as f64 / self.admitted.max(1) as f64,
        );
        out.set("control.shard_skew", self.service.shard_skew(INGRESS_IF).unwrap_or(0.0));

        // The ledger's fixed cost: transactions that touch only the gas
        // coin.
        const EMPTY_TXS: u64 = 250;
        let account = self.service.account;
        for pass in 0..SWEEP_PASSES as u64 {
            rec.span("ledger.execute", pass, EMPTY_TXS, |_| {
                for _ in 0..EMPTY_TXS {
                    black_box(self.cp.exec(account, |_| Ok(()))).expect("empty tx");
                }
            });
        }
        // The admit phase's intervals through the steering-aware
        // allocator, as `process_requests` drives it.
        let ranges = ShardMap::new(SHARDS, RES_ID_CAP, Steering::ByReservation).res_id_ranges();
        let mut allocator = ShardedFirstFit::new(&ranges);
        let chunk = self.intervals.len().div_ceil(SWEEP_PASSES).max(1);
        for (pass, intervals) in self.intervals.chunks(chunk).enumerate() {
            rec.span("coloring.assign", pass as u64, intervals.len() as u64, |_| {
                for &iv in intervals {
                    black_box(allocator.assign(iv));
                }
            });
        }
        // The public-key crypto of one admit: the registration-style
        // signature, its verification, and opening a sealed delivery.
        const CRYPTO_OPS: u64 = 32;
        let sk = SecretKey::generate(&mut self.rng);
        let pk = sk.public();
        let msg = [0x5Au8; 64];
        let boxes: Vec<_> =
            (0..CRYPTO_OPS).map(|_| sealed::seal(&pk, &msg, &mut self.rng)).collect();
        for pass in 0..SWEEP_PASSES as u64 {
            let mut sigs = Vec::with_capacity(CRYPTO_OPS as usize);
            rec.span("crypto.sig_sign", pass, CRYPTO_OPS, |_| {
                for _ in 0..CRYPTO_OPS {
                    sigs.push(sk.sign(black_box(&msg), &mut self.rng));
                }
            });
            rec.span("crypto.sig_verify", pass, CRYPTO_OPS, |_| {
                for sig in &sigs {
                    black_box(pk.verify(&msg, sig));
                }
            });
            rec.span("crypto.sealed_open", pass, CRYPTO_OPS, |_| {
                for boxed in &boxes {
                    black_box(sealed::open(&sk, boxed)).expect("own box opens");
                }
            });
        }
        apply_span_metrics(rec, out);
    }
}

fn control_labels(extra: Vec<(&'static str, Value)>) -> Vec<(&'static str, Value)> {
    let mut labels = vec![
        ("threads", Value::Num(1.0)),
        ("shards", Value::Num(SHARDS as f64)),
        ("exec", Value::Str("single thread, in-process ledger".into())),
        ("loop", Value::Str("closed, sized by count".into())),
    ];
    labels.extend(extra);
    labels
}

// ---------------------------------------------------------------------
// control_lifecycle
// ---------------------------------------------------------------------

pub struct Lifecycle {
    world: World,
    wave: u64,
    /// Waves and wave-1 admits per second of requested repetition.
    waves_per_s: f64,
    singles_per_s: f64,
    wave_totals: PhaseTotals,
    single_totals: PhaseTotals,
}

impl Lifecycle {
    pub fn build(seed: u64, quick: bool) -> Self {
        let mut w = Lifecycle {
            world: World::new(seed),
            wave: if quick { 500 } else { 5_000 },
            // On the reference host a wave of 5 000 takes ≈ 0.45 s and a
            // wave-1 admit ≈ 90 µs: 60 % of a repetition goes to waves,
            // 40 % to singles.
            waves_per_s: if quick { 6.0 } else { 1.5 },
            singles_per_s: 4_000.0,
            wave_totals: PhaseTotals::default(),
            single_totals: PhaseTotals::default(),
        };
        // Warm-up: a tenth of a wave, then as many singles.
        let n = w.wave / 10;
        let c = w.world.new_client();
        w.world.admit(c, n, &mut Recorder::off()).expect("warm-up wave");
        for _ in 0..n {
            w.world.admit(c, 1, &mut Recorder::off()).expect("warm-up single");
        }
        w
    }
}

impl Workload for Lifecycle {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let waves = (self.waves_per_s * seconds).round().max(1.0) as u64;
        let singles = (self.singles_per_s * seconds).round().max(1.0) as u64;

        // admit_wave: the workload's operations.
        let mark = self.world.mark();
        for _ in 0..waves {
            let c = self.world.new_client();
            let t0 = Instant::now();
            let result = self.world.admit(c, self.wave, rec);
            rep.wall_s += t0.elapsed().as_secs_f64();
            rep.attempted += self.wave;
            match result {
                Ok(()) => rep.ops += self.wave,
                Err(e) => rep.fail(self.wave, format!("admit_wave: {e}")),
            }
        }
        let after = self.world.mark();
        self.wave_totals.ops += waves * self.wave;
        self.wave_totals.txs += after.txs - mark.txs;
        self.wave_totals.gas += after.gas - mark.gas;
        self.wave_totals.wall_s += rep.wall_s;

        // admit_single: the workload's latency samples.
        let c = self.world.new_client();
        rep.latencies_us.reserve(singles as usize);
        let phase = Instant::now();
        for _ in 0..singles {
            let t0 = Instant::now();
            let result = self.world.admit(c, 1, rec);
            rep.latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            rep.attempted += 1;
            if let Err(e) = result {
                rep.fail(1, format!("admit_single: {e}"));
            }
        }
        let done = self.world.mark();
        self.single_totals.ops += singles;
        self.single_totals.txs += done.txs - after.txs;
        self.single_totals.gas += done.gas - after.gas;
        self.single_totals.wall_s += phase.elapsed().as_secs_f64();
        rep
    }

    fn verify(&mut self, failures: &mut Vec<String>) -> (u64, u64) {
        self.world.check_invariants(failures)
    }

    fn layers(&mut self, _traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        let (w, s) = (self.wave_totals, self.single_totals);
        out.set("control.admit_wave_ops_per_s", w.ops as f64 / w.wall_s.max(1e-9));
        out.set("control.admit_single_ops_per_s", s.ops as f64 / s.wall_s.max(1e-9));
        out.set("ledger.txs_per_admit", w.per_op(w.txs as f64));
        out.set("ledger.txs_per_admit_single", s.per_op(s.txs as f64));
        out.set("ledger.gas_per_admit", w.per_op(w.gas as f64));
        self.world.state_layers(rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        control_labels(vec![("wave", Value::Num(self.wave as f64))])
    }
}

// ---------------------------------------------------------------------
// control_steady
// ---------------------------------------------------------------------

/// Auctions per epoch: one `clear_epoch` batch.
const AUCTIONS: u64 = 256;

pub struct Steady {
    world: World,
    engine: ClearingEngine,
    /// Renewal rounds served so far (= the generation requests quote).
    generation: u32,
    epoch: u64,
    /// Rounds per second of requested repetition; each round renews
    /// every live reservation once and clears two auction epochs.
    rounds_per_s: f64,
    renew_totals: PhaseTotals,
    clear_totals: PhaseTotals,
}

impl Steady {
    pub fn build(seed: u64, quick: bool) -> Self {
        let mut world = World::new(seed);
        let (live, wave) = if quick { (512, 256) } else { (4_096, 2_048) };
        for _ in 0..live / wave {
            let c = world.new_client();
            world.admit(c, wave, &mut Recorder::off()).expect("set-up admission");
        }
        for i in 0..BIDDERS {
            let bidder = Address::from_label(&format!("bidder-{i}"));
            world.cp.faucet(bidder, 100_000);
            world.bidders.push(bidder);
        }
        let mut w = Steady {
            world,
            engine: ClearingEngine::new(),
            generation: 0,
            epoch: 1,
            // ≈ 80 ms a round on the reference host.
            rounds_per_s: if quick { 24.0 } else { 12.0 },
            renew_totals: PhaseTotals::default(),
            clear_totals: PhaseTotals::default(),
        };
        // Warm-up: one round.
        let mut warm = Rep::default();
        w.round(&mut warm, &mut Recorder::off());
        assert_eq!(warm.failed, 0, "warm-up round: {:?}", warm.failures);
        w.renew_totals = PhaseTotals::default();
        w.clear_totals = PhaseTotals::default();
        w
    }

    /// Renews every live reservation once: per client one batched
    /// request tx and one batched `process_renewals` tx, both timed;
    /// collection, key verification and sweeping run off the clock and
    /// cover every delivery.
    fn renew_all(&mut self, rep: &mut Rep, rec: &mut Recorder) {
        let World { cp, service, rng, clients, .. } = &mut self.world;
        let as_account = service.account;
        for client in clients.iter_mut() {
            // The latest window of each reservation: the last `live`
            // grants (every round appends one renewed grant per
            // reservation, in order).
            let held = client.reservations();
            let live = held.len() / (self.generation as usize + 1);
            let current = &held[held.len() - live..];
            let targets: Vec<(u16, u32, u32)> = current
                .iter()
                .map(|g| (g.res_info.ingress, g.res_info.res_id, self.generation))
                .collect();
            let hops: HashSet<(u32, u16, u16)> = current
                .iter()
                .map(|g| (g.res_info.res_id, g.res_info.ingress, g.res_info.egress))
                .collect();
            let n = targets.len() as u64;
            rep.attempted += n;

            let t0 = Instant::now();
            let requested =
                rec.span("control.request_renewals", u64::from(self.generation), n, |_| {
                    client.request_renewals(cp, as_account, &targets, RENEW_FEE)
                });
            let report =
                rec.span("control.process_renewals", u64::from(self.generation), n, |_| {
                    service.process_renewals(cp, rng)
                });
            rep.wall_s += t0.elapsed().as_secs_f64();
            let served = match (requested, report) {
                (Ok(_), Ok(report)) if report.rejected == 0 => report.delivered.len() as u64,
                (requested, report) => {
                    rep.fail(
                        n,
                        format!(
                            "renewal batch: {:?} / {report:?}",
                            requested.map(|r| r.value.len())
                        ),
                    );
                    continue;
                }
            };
            rep.ops += served;

            // Off the clock: every delivery must unwrap with the
            // client-side ratchet, match the router's independent
            // derivation, and extend an unchanged (ResID, hop) pair by
            // exactly one window.
            let before = client.reservations().len();
            let got = client.collect_renewals(cp).unwrap_or(0);
            let want_start = (u64::from(self.generation) + 1) * HOUR;
            let bad = client.reservations()[before..]
                .iter()
                .filter(|g| {
                    g.key != service.secret_value().derive_key(&g.res_info)
                        || u64::from(g.res_info.res_start) != want_start
                        || !hops.contains(&(
                            g.res_info.res_id,
                            g.res_info.ingress,
                            g.res_info.egress,
                        ))
                })
                .count() as u64;
            if got as u64 != n || served != n || bad != 0 {
                rep.fail(
                    bad.max(n.abs_diff(got as u64)),
                    format!("renew: {n} requested, {served} served, {got} collected, {bad} bad keys or windows"),
                );
            }
            if let Err(e) = client.sweep_collected(cp) {
                rep.fail(1, format!("sweep renewals: {e:?}"));
            }
        }
        self.generation += 1;
    }

    /// One auction epoch: 256 sealed-bid Vickrey auctions × 4 bidders
    /// created, committed, closed and revealed, then settled by one
    /// `clear_epoch` transaction.
    fn clear_epoch(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let World { cp, service, bidders, issued_bwt, .. } = &mut self.world;
        let seller = service.account;
        let epoch = self.epoch;
        self.epoch += 1;
        let err = |what: &str, e: &dyn std::fmt::Debug| format!("{what}: {e:?}");
        let mut reveals = Vec::with_capacity(AUCTIONS as usize * BIDDERS);
        for a in 0..AUCTIONS {
            let template = asset(Direction::Ingress, INGRESS_IF, 3 * HOUR, 4 * HOUR);
            *issued_bwt += bwt(&template);
            let asset_id =
                service.issue_asset(cp, template).map_err(|e| err("auction asset", &e))?.value;
            let auction_id = rec
                .span("control.create_auction", a, 1, |_| {
                    self.engine.create_auction(cp, seller, asset_id, RESERVE_PRICE, epoch)
                })
                .map_err(|e| err("create auction", &e))?
                .value;
            for (bi, bidder) in bidders.iter().enumerate() {
                let amount = RESERVE_PRICE + (a * 31 + bi as u64 * 17) % 1000;
                let mut salt = [0u8; 32];
                salt[..8].copy_from_slice(&(a * BIDDERS as u64 + bi as u64).to_be_bytes());
                salt[8..16].copy_from_slice(&epoch.to_be_bytes());
                let commitment = bid_commitment(amount, &salt, *bidder);
                let bid_id = rec
                    .span("control.commit_bid", a, 1, |_| {
                        cp.commit_bid(*bidder, auction_id, commitment, amount + 50)
                    })
                    .map_err(|e| err("commit bid", &e))?
                    .value;
                reveals.push((auction_id, bid_id, *bidder, amount, salt));
            }
            cp.close_bidding(seller, auction_id).map_err(|e| err("close bidding", &e))?;
        }
        for (i, &(auction_id, bid_id, bidder, amount, salt)) in reveals.iter().enumerate() {
            rec.span("control.reveal_bid", i as u64, 1, |_| {
                cp.reveal_bid(bidder, auction_id, bid_id, amount, salt)
            })
            .map_err(|e| err("reveal bid", &e))?;
        }
        let outcomes = rec
            .span("control.clear_epoch", epoch, AUCTIONS, |_| {
                self.engine.clear_epoch(cp, seller, epoch)
            })
            .map_err(|e| err("clear epoch", &e))?
            .value;
        let settled =
            outcomes.iter().filter(|(_, o)| o.winner.is_some() && o.price >= RESERVE_PRICE).count()
                as u64;
        if settled != AUCTIONS {
            return Err(format!("{settled}/{AUCTIONS} auctions settled above the reserve"));
        }
        Ok(())
    }

    fn round(&mut self, rep: &mut Rep, rec: &mut Recorder) {
        let mark = self.world.mark();
        let (ops0, wall0) = (rep.ops, rep.wall_s);
        self.renew_all(rep, rec);
        let after = self.world.mark();
        self.renew_totals.ops += rep.ops - ops0;
        self.renew_totals.wall_s += rep.wall_s - wall0;
        self.renew_totals.txs += after.txs - mark.txs;
        self.renew_totals.gas += after.gas - mark.gas;
        for _ in 0..2 {
            let mark = self.world.mark();
            let t0 = Instant::now();
            let result = self.clear_epoch(rec);
            let elapsed = t0.elapsed();
            rep.latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
            rep.attempted += AUCTIONS;
            if let Err(e) = result {
                rep.fail(AUCTIONS, format!("clear: {e}"));
            }
            let after = self.world.mark();
            self.clear_totals.ops += AUCTIONS;
            self.clear_totals.wall_s += elapsed.as_secs_f64();
            self.clear_totals.txs += after.txs - mark.txs;
            self.clear_totals.gas += after.gas - mark.gas;
        }
    }
}

impl Workload for Steady {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let rounds = (self.rounds_per_s * seconds).round().max(1.0) as u64;
        for _ in 0..rounds {
            self.round(&mut rep, rec);
        }
        rep
    }

    fn verify(&mut self, failures: &mut Vec<String>) -> (u64, u64) {
        self.world.check_invariants(failures)
    }

    fn layers(&mut self, _traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        let (r, c) = (self.renew_totals, self.clear_totals);
        out.set("control.renew_ops_per_s", r.ops as f64 / r.wall_s.max(1e-9));
        out.set("control.clear_auctions_per_s", c.ops as f64 / c.wall_s.max(1e-9));
        out.set("ledger.txs_per_renew", r.per_op(r.txs as f64));
        out.set("ledger.txs_per_auction", c.per_op(c.txs as f64));
        out.set("ledger.gas_per_renew", r.per_op(r.gas as f64));
        out.set("ledger.gas_per_auction", c.per_op(c.gas as f64));
        self.world.state_layers(rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        control_labels(vec![
            ("live_reservations", Value::Num(self.world.admitted as f64)),
            ("auctions_per_epoch", Value::Num(AUCTIONS as f64)),
            ("bidders", Value::Num(BIDDERS as f64)),
        ])
    }
}
