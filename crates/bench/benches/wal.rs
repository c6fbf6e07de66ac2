//! Criterion bench for the write-ahead log: what durability costs at
//! recovery time. Three rows over the same 256-record mutation mix —
//! `encode-256` (append-path serialization, the reference row),
//! `decode-256` (pure in-memory log decode), and `open-256` (the real
//! recovery read: `Wal::open` on a written log file — read, checksum,
//! frame, and tail-scan included) — and three for the snapshot a
//! checkpoint folds the log into, on the perf ledger's world (4,000-POI
//! metro, quantized tier, FSST payloads): `checkpoint/cut-4k`
//! (`cut_prepared`: the collection packed in memory, dataset and overlay
//! pinned — the part of a checkpoint the tripping writer waits for),
//! `checkpoint/save-4k` (`save_prepared`, cut + write: every file
//! written and fsynced, `CURRENT` flipped, the superseded snapshot
//! removed) and `checkpoint/load-4k` (`load_prepared`: files read,
//! verified, indexes rebuilt).
//!
//! Replaying decoded records through `SemaSkEngine::apply_mutations` is
//! deliberately *not* benched here: that path re-embeds documents, so
//! its cost is the embedder's, not the log's, and it is covered by the
//! crash battery (`tests/durability.rs`) for correctness instead.
//!
//! The recorded baseline lives in `BENCH_wal.json` at the repo root;
//! regenerate with `cargo bench --bench wal` after touching the log
//! format or the recovery path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use semask::persist::{cut_prepared, load_prepared, save_prepared};
use semask::wal::{decode_buffer, encode_record, Mutation, PoiSpec, PoiUpdate, Wal};
use semask::SemaSkConfig;
use vecdb::ScoringTier;

const RECORDS: usize = 256;

/// A plausible serving mix: mostly inserts (the big payloads), some
/// tip/name updates, a few deletes.
fn mutation_mix() -> Vec<Mutation> {
    (0..RECORDS)
        .map(|i| match i % 8 {
            0..=4 => Mutation::Insert(PoiSpec {
                name: format!("Benchmark Pavilion {i}"),
                lat: 34.0 + (i as f64) * 1e-4,
                lon: -119.0 - (i as f64) * 1e-4,
                categories: vec!["restaurant".to_owned(), "benchmark".to_owned()],
                tips: vec![
                    format!("tip number one for poi {i}"),
                    format!("tip number two for poi {i}"),
                ],
            }),
            5 | 6 => Mutation::Update {
                id: (i % 128) as u32,
                update: PoiUpdate {
                    name: Some(format!("Renamed Pavilion {i}")),
                    tips: Some(vec![format!("fresh tip for {i}")]),
                },
            },
            _ => Mutation::Delete {
                id: (i % 128) as u32,
            },
        })
        .collect()
}

fn encoded(muts: &[Mutation]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (i, m) in muts.iter().enumerate() {
        buf.extend_from_slice(&encode_record(i as u64 + 1, m).expect("encode"));
    }
    buf
}

fn bench_wal(c: &mut Criterion) {
    let muts = mutation_mix();
    let buf = encoded(&muts);

    let path = std::env::temp_dir().join(format!("semask_bench_wal_{}.log", std::process::id()));
    std::fs::write(&path, &buf).expect("write log fixture");

    let mut group = c.benchmark_group("wal");

    group.bench_function("encode-256", |b| {
        b.iter(|| black_box(encoded(black_box(&muts))).len())
    });

    group.bench_function("decode-256", |b| {
        b.iter(|| {
            let (records, consumed) = decode_buffer(black_box(&buf));
            assert_eq!(records.len(), RECORDS);
            black_box(consumed)
        })
    });

    group.bench_function("open-256", |b| {
        b.iter(|| {
            let (wal, records) = Wal::open(black_box(&path)).expect("open");
            assert_eq!(records.len(), RECORDS);
            black_box(wal.stats().next_seq)
        })
    });

    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// The snapshot a checkpoint writes and a restart reads, on the world
/// and config `ledger/src/sut.rs` sets up.
fn bench_checkpoint(c: &mut Criterion) {
    let data = datagen::generate_metro(&datagen::MetroConfig::new(4_000, 7));
    let config = SemaSkConfig {
        compress_payload_text: true,
        scoring_tier: ScoringTier::Quantized {
            rerank_factor: ScoringTier::DEFAULT_RERANK_FACTOR,
        },
        ..SemaSkConfig::default()
    };
    let prepared = semask::prepare_city_with_threads(&data, &llm::SimLlm::new(), &config, 2)
        .expect("preparing a generated metro cannot fail");
    let dir = std::env::temp_dir().join(format!("semask_bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut group = c.benchmark_group("checkpoint");
    group.bench_function("cut-4k", |b| {
        b.iter(|| cut_prepared(black_box(&prepared)).expect("cut"))
    });
    group.bench_function("save-4k", |b| {
        b.iter(|| save_prepared(black_box(&prepared), &dir).expect("save"))
    });
    group.bench_function("load-4k", |b| {
        b.iter(|| {
            let restored = load_prepared(black_box(&dir), &config).expect("load");
            assert_eq!(restored.dataset.len(), 4_000);
            restored
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_wal, bench_checkpoint);
criterion_main!(benches);
