//! Criterion micro-benchmarks of the data-plane hot path and its
//! cryptographic building blocks. Complements the table/figure binaries
//! with statistically rigorous per-operation numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hummingbird_bench::{DataplaneFixture, EngineKind, EPOCH_MS, EPOCH_NS, EPOCH_S};
use hummingbird_crypto::aes::{bytewise::ByteAes128, Aes128, AesBackend};
use hummingbird_crypto::cmac::Cmac;
use hummingbird_crypto::sha256::Sha256;
use hummingbird_crypto::{
    flyover_tags_batch, ni_available, AuthKey, FlyoverMacInput, ResInfo, SecretValue,
};
use hummingbird_dataplane::policing::Policer;
use hummingbird_dataplane::{Datapath, PacketBuf};

/// Single-block AES across the three implementations: the retired
/// byte-oriented core (the "before" reference), the portable T-table
/// backend, and AES-NI where the CPU supports it. The acceptance bar for
/// this PR is soft ≥ 5× the byte-oriented reference, with `ni` faster
/// still.
fn bench_aes_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("aes_backends");
    let key = [7u8; 16];
    let byte = ByteAes128::new(&key);
    g.bench_function("block_bytewise_reference", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            byte.encrypt_block(&mut block);
            std::hint::black_box(&block);
        })
    });
    let mut backends = vec![AesBackend::Soft];
    if ni_available() {
        backends.push(AesBackend::Ni);
    }
    for backend in backends {
        let aes = Aes128::with_backend(&key, backend);
        g.bench_function(format!("block_{}", backend.name()), |b| {
            let mut block = [0u8; 16];
            b.iter(|| {
                aes.encrypt_block(&mut block);
                std::hint::black_box(&block);
            })
        });
        // Interleaved multi-block vs a single-block loop: the win of
        // keeping 4-8 independent blocks in flight.
        g.bench_function(format!("blocks32_loop_{}", backend.name()), |b| {
            let mut blocks = [[0u8; 16]; 32];
            b.iter(|| {
                for block in blocks.iter_mut() {
                    aes.encrypt_block(block);
                }
                std::hint::black_box(&blocks);
            })
        });
        g.bench_function(format!("blocks32_interleaved_{}", backend.name()), |b| {
            let mut blocks = [[0u8; 16]; 32];
            b.iter(|| {
                aes.encrypt_blocks(&mut blocks);
                std::hint::black_box(&blocks);
            })
        });
        g.bench_function(format!("key_expansion_{}", backend.name()), |b| {
            b.iter(|| std::hint::black_box(Aes128::with_backend(&[9u8; 16], backend)))
        });
    }
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let aes = Aes128::new(&[7u8; 16]);
    g.bench_function("aes128_block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(&mut block);
            std::hint::black_box(&block);
        })
    });
    g.bench_function("aes128_key_expansion", |b| {
        b.iter(|| std::hint::black_box(Aes128::new(&[9u8; 16])))
    });
    let cmac = Cmac::new(&[7u8; 16]);
    g.bench_function("cmac_one_block", |b| b.iter(|| std::hint::black_box(cmac.mac(&[0u8; 16]))));
    g.bench_function("cmac_two_blocks", |b| b.iter(|| std::hint::black_box(cmac.mac(&[0u8; 32]))));
    g.bench_function("sha256_64B", |b| b.iter(|| std::hint::black_box(Sha256::digest(&[0u8; 64]))));
    g.finish();
}

fn bench_derivations(c: &mut Criterion) {
    let mut g = c.benchmark_group("derivations");
    let sv = SecretValue::new([0x61; 16]);
    let info = ResInfo {
        ingress: 0,
        egress: 1,
        res_id: 1,
        bw_encoded: 1000,
        res_start: EPOCH_S as u32,
        duration: 600,
    };
    g.bench_function("derive_auth_key_Ak", |b| {
        b.iter(|| std::hint::black_box(sv.derive_key(&info)))
    });
    // One burst of 32 derivations: sequential vs the single-sweep batch
    // path the router's process_batch override uses.
    let infos: Vec<ResInfo> = (0..32).map(|i| ResInfo { res_id: 1 + i, ..info }).collect();
    g.bench_function("derive_32_keys_sequential", |b| {
        b.iter(|| {
            for i in &infos {
                std::hint::black_box(sv.derive_key(i));
            }
        })
    });
    g.bench_function("derive_32_keys_batch_sweep", |b| {
        let mut scratch = Vec::new();
        let mut keys = Vec::new();
        b.iter(|| {
            keys.clear();
            sv.derive_keys_batch(&infos, &mut scratch, &mut keys);
            std::hint::black_box(keys.len());
        })
    });
    let key = AuthKey::new([5u8; 16]);
    let input = FlyoverMacInput {
        dst_isd: 2,
        dst_as: 0x20,
        pkt_len: 600,
        res_start_offset: 10,
        millis_ts: 1,
        counter: 2,
    };
    g.bench_function("flyover_mac", |b| b.iter(|| std::hint::black_box(key.flyover_mac(&input))));
    // One burst of 32 per-packet tags, each under its own key: sequential
    // vs the multi-key sweep fused into the router's batch pass 1.
    let keys: Vec<AuthKey> =
        (0..32).map(|i| sv.derive_key(&ResInfo { res_id: 1 + i, ..info })).collect();
    let key_refs: Vec<&AuthKey> = keys.iter().collect();
    let inputs: Vec<FlyoverMacInput> =
        (0..32).map(|i| FlyoverMacInput { counter: i, ..input }).collect();
    g.bench_function("flyover_tags_32_sequential", |b| {
        b.iter(|| {
            for (k, i) in key_refs.iter().zip(&inputs) {
                std::hint::black_box(k.flyover_mac(i));
            }
        })
    });
    g.bench_function("flyover_tags_32_batch_sweep", |b| {
        let mut scratch = Vec::new();
        let mut tags = Vec::new();
        b.iter(|| {
            tags.clear();
            flyover_tags_batch(&key_refs, &inputs, &mut scratch, &mut tags);
            std::hint::black_box(tags.len());
        })
    });
    g.finish();
}

fn bench_router(c: &mut Criterion) {
    let mut g = c.benchmark_group("router");
    for kind in EngineKind::ALL {
        for payload in [100usize, 1500] {
            let fx = DataplaneFixture::new(4);
            let pkt = fx.engine_packet(kind, payload);
            g.throughput(Throughput::Bytes(pkt.len() as u64));
            g.bench_function(format!("process_{}_{payload}B", kind.name()), |b| {
                let mut engine = fx.engine(kind);
                let mut hot = PacketBuf::new(pkt.clone());
                b.iter(|| {
                    let v = engine.process(hot.bytes_mut(), EPOCH_NS);
                    hot.reset();
                    std::hint::black_box(v)
                })
            });
        }
    }
    g.finish();
}

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime");
    let fx = DataplaneFixture::new(4);
    // A 32-packet, 8-flow burst through the batch path: one engine vs the
    // sharded facade (steering + run splitting on top of the same work).
    let templates = fx.flow_packets(EngineKind::Hummingbird, 500, 8);
    let make_burst = || -> Vec<PacketBuf> {
        (0..32).map(|i| PacketBuf::new(templates[i % templates.len()].clone())).collect()
    };
    g.throughput(Throughput::Elements(32));
    g.bench_function("process_batch_32_single", |b| {
        let mut engine = fx.engine(EngineKind::Hummingbird);
        let mut burst = make_burst();
        let mut verdicts = Vec::with_capacity(32);
        b.iter(|| {
            verdicts.clear();
            engine.process_batch(&mut burst, EPOCH_NS, &mut verdicts);
            for p in &mut burst {
                p.reset();
            }
            std::hint::black_box(verdicts.len())
        })
    });
    g.bench_function("process_batch_32_sharded4", |b| {
        let mut engine = fx.sharded_engine(EngineKind::Hummingbird, 4);
        let mut burst = make_burst();
        let mut verdicts = Vec::with_capacity(32);
        b.iter(|| {
            verdicts.clear();
            engine.process_batch(&mut burst, EPOCH_NS, &mut verdicts);
            for p in &mut burst {
                p.reset();
            }
            std::hint::black_box(verdicts.len())
        })
    });
    g.finish();
}

fn bench_source(c: &mut Criterion) {
    let mut g = c.benchmark_group("source");
    for h in [1usize, 4, 16] {
        let fx = DataplaneFixture::new(h);
        g.bench_function(format!("generate_hummingbird_h{h}_500B"), |b| {
            let mut generator = fx.generator(true);
            let payload = vec![0u8; 500];
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                std::hint::black_box(generator.generate(&payload, EPOCH_MS + i / 1000).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_policing(c: &mut Criterion) {
    let mut g = c.benchmark_group("policing");
    g.bench_function("token_bucket_check", |b| {
        let mut p = Policer::paper_default();
        let mut t = EPOCH_NS;
        b.iter(|| {
            t += 1000;
            std::hint::black_box(p.check(42, 1_000_000, 600, t))
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let fx = DataplaneFixture::new(4);
    let pkt = fx.packet(500, true);
    g.bench_function("packet_parse_full", |b| {
        b.iter(|| std::hint::black_box(hummingbird_wire::Packet::parse(&pkt).unwrap()))
    });
    let parsed = hummingbird_wire::Packet::parse(&pkt).unwrap();
    g.bench_function("packet_emit_full", |b| {
        b.iter_batched(
            || parsed.clone(),
            |p| std::hint::black_box(p.to_bytes().unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_aes_backends, bench_crypto, bench_derivations, bench_router, bench_runtime, bench_source, bench_policing, bench_wire
);
criterion_main!(benches);
