//! Fault-injection crash battery: the headline durability proof.
//!
//! The parent test re-executes this test binary as a child pinned to
//! one crash point (`SEMASK_CRASH_POINT`/`SEMASK_CRASH_AFTER`, see
//! `semask::wal::crash_point`). The child builds a durable engine,
//! applies a scripted mutation sequence one `mutate()` at a time, and
//! aborts mid-protocol wherever the armed point fires — on the writer's
//! thread for the log points and the rotation, on the snapshot thread
//! (while the script keeps writing) for the points inside a checkpoint.
//! The parent then recovers from the surviving directory and demands
//! **bit-identical** query results against a from-scratch engine that
//! applied exactly the recovered prefix of the script —
//! build-from-scratch must equal build-mutate-crash-recover, at every
//! injection point.
//!
//! Determinism pinning: `common::exact_only_config` gives every engine
//! the same coefficients, which price every query onto the exact scan
//! (`fingerprint` asserts the route), and `Variant::EmbeddingOnly` keeps
//! the LLM out of the ranking.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use datagen::{poi::generate_city, CITIES};
use geotext::{BoundingBox, GeoPoint};
use llm::SimLlm;
use semask::durable::{CheckpointPolicy, DurableEngine};
use semask::wal::{Mutation, PoiSpec, PoiUpdate};
use semask::{prepare_city, RetrievalStrategy, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

/// Child runs are gated on this: unset (the normal in-process case)
/// means the child test body is a no-op.
const DIR_ENV: &str = "DURABILITY_DIR";

const POIS: usize = 150;
const SEED: u64 = 21;

/// Checkpoint after 4 records: the 6-step script crosses the threshold
/// mid-run, so the battery exercises both log-replay and fold-then-
/// continue recovery shapes.
const POLICY: CheckpointPolicy = CheckpointPolicy {
    max_records: 4,
    max_bytes: u64::MAX,
};

fn config() -> SemaSkConfig {
    common::exact_only_config()
}

fn build_engine(llm: &Arc<SimLlm>) -> SemaSkEngine {
    let data = generate_city(&CITIES[4], POIS, SEED);
    let config = config();
    let prepared = Arc::new(prepare_city(&data, llm, &config).expect("prep"));
    SemaSkEngine::new(prepared, Arc::clone(llm), config, Variant::EmbeddingOnly)
}

/// The scripted mutation sequence, identical in child and parent.
/// Inserts claim ids `POIS` and `POIS + 1` (dense base ids).
fn scripted(center: GeoPoint) -> Vec<Mutation> {
    vec![
        Mutation::Insert(PoiSpec {
            name: "Crashproof Dumpling Cellar".to_owned(),
            lat: center.lat + 0.002,
            lon: center.lon - 0.001,
            categories: vec!["dumpling house".to_owned()],
            tips: vec!["the pork dumplings survive anything".to_owned()],
        }),
        Mutation::Update {
            id: 7,
            update: PoiUpdate {
                name: Some("Renamed Mutation Bistro".to_owned()),
                tips: Some(vec!["completely reinvented menu".to_owned()]),
            },
        },
        Mutation::Insert(PoiSpec {
            name: "Recovery Espresso Annex".to_owned(),
            lat: center.lat - 0.003,
            lon: center.lon + 0.002,
            categories: vec!["coffee shop".to_owned()],
            tips: vec!["strong shots, stronger guarantees".to_owned()],
        }),
        Mutation::Delete { id: 12 },
        Mutation::Update {
            id: POIS as u32,
            update: PoiUpdate {
                name: None,
                tips: Some(vec!["now with shrimp dumplings too".to_owned()]),
            },
        },
        Mutation::Delete {
            id: POIS as u32 + 1,
        },
    ]
}

fn probe_queries(center: GeoPoint) -> Vec<SemaSkQuery> {
    let wide = BoundingBox::from_center_km(center, 20.0, 20.0);
    let near = BoundingBox::from_center_km(center, 3.0, 3.0);
    vec![
        SemaSkQuery::new(wide, "crashproof dumpling cellar"),
        SemaSkQuery::new(near, "recovery espresso annex"),
        SemaSkQuery::new(wide, "renamed mutation bistro"),
        SemaSkQuery::new(wide, "a cozy spot for dinner with friends"),
    ]
}

/// Full result fingerprint: ids plus the exact bits of the embedding
/// score. Any drift between recovered and from-scratch state shows up
/// here.
fn fingerprint(engine: &SemaSkEngine, queries: &[SemaSkQuery]) -> Vec<Vec<(u32, u32)>> {
    queries
        .iter()
        .map(|q| {
            let outcome = engine.query(q).expect("probe query");
            assert_eq!(
                outcome.latency.filter_strategy,
                Some(RetrievalStrategy::ExactScan),
                "bit-identity across engines rests on the exact scan"
            );
            outcome
                .pois
                .iter()
                .map(|p| (p.id.0, p.embed_score.to_bits()))
                .collect()
        })
        .collect()
}

/// Every live point's stored position, by id: recovered ≡ rebuilt holds
/// for what the collection keeps beside the vectors, too.
fn positions(engine: &SemaSkEngine) -> Vec<(u64, (f64, f64))> {
    let prepared = engine.prepared();
    let handle = prepared
        .db
        .collection(&prepared.collection_name)
        .expect("collection");
    let mut out: Vec<(u64, (f64, f64))> = handle
        .read()
        .iter_points()
        .map(|(id, _, position)| (id, position))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Child role: builds the durable engine in `$DURABILITY_DIR` and walks
/// the script. With a crash point armed this aborts mid-protocol; with
/// none it exits cleanly after all six mutations. The engine is dropped
/// before the test returns, which joins the snapshot thread: a point
/// armed there fires even if the script finished first.
#[test]
fn durability_child() {
    let Ok(dir) = std::env::var(DIR_ENV) else {
        return;
    };
    let llm = Arc::new(SimLlm::new());
    let engine = build_engine(&llm);
    let center = engine.prepared().city.center();
    let durable =
        DurableEngine::create(engine, Path::new(&dir), POLICY).expect("create durable engine");
    for mutation in scripted(center) {
        durable.mutate(mutation).expect("scripted mutation");
    }
    drop(durable);
}

struct CrashRun {
    /// `SEMASK_CRASH_POINT` value, or `None` for the clean control run.
    point: Option<&'static str>,
    /// `SEMASK_CRASH_AFTER`: abort on the nth hit of the point.
    after: u32,
    /// Inclusive bounds on the recovered sequence number.
    /// `wal-before-fsync` and `wal-prepared` are indeterminate because
    /// the abort may land before the fsync but the OS may have flushed
    /// the record anyway; the
    /// points on the snapshot thread because the writer goes on with
    /// records 5 and 6 while the snapshot of 1-4 is written.
    seq_range: (u64, u64),
}

#[test]
fn crash_battery() {
    if std::env::var(DIR_ENV).is_ok() {
        return; // we ARE a child; the battery only runs in the parent
    }
    // `ckpt-mid-snapshot` needs `after: 2`: hit 1 is the initial
    // baseline snapshot written by `DurableEngine::create`.
    let runs = [
        CrashRun {
            point: Some("wal-before-fsync"),
            after: 1,
            seq_range: (0, 1),
        },
        // Inside the overlapped window: the batch is prepared, its
        // fsync may still be running, nothing is committed. The record
        // was written, so whether it survives is the disk's to decide.
        CrashRun {
            point: Some("wal-prepared"),
            after: 1,
            seq_range: (0, 1),
        },
        CrashRun {
            point: Some("wal-prepared"),
            after: 3,
            seq_range: (2, 3),
        },
        CrashRun {
            point: Some("wal-after-fsync"),
            after: 1,
            seq_range: (1, 1),
        },
        CrashRun {
            point: Some("wal-after-fsync"),
            after: 3,
            seq_range: (3, 3),
        },
        // After the rename and the fresh log, before the snapshot
        // thread exists: records 1-4 are in `wal.prev` only.
        CrashRun {
            point: Some("ckpt-after-rotate"),
            after: 1,
            seq_range: (4, 4),
        },
        CrashRun {
            point: Some("ckpt-mid-snapshot"),
            after: 2,
            seq_range: (4, 6),
        },
        // Snapshot committed, `wal.prev` not yet removed.
        CrashRun {
            point: Some("ckpt-before-reset"),
            after: 1,
            seq_range: (4, 6),
        },
        // `wal.prev` removed.
        CrashRun {
            point: Some("ckpt-after-reset"),
            after: 1,
            seq_range: (4, 6),
        },
        CrashRun {
            point: Some("wal-before-fsync"),
            after: 5,
            seq_range: (4, 5),
        },
        CrashRun {
            point: None,
            after: 0,
            seq_range: (6, 6),
        },
    ];

    // One from-scratch reference engine, fingerprinted after every
    // prefix of the script: `by_prefix[s]` is the expected answer set
    // when exactly `s` mutations survived.
    let llm = Arc::new(SimLlm::new());
    let scratch = build_engine(&llm);
    let center = scratch.prepared().city.center();
    let script = scripted(center);
    let queries = probe_queries(center);
    let mut by_prefix = vec![fingerprint(&scratch, &queries)];
    let mut positions_by_prefix = vec![positions(&scratch)];
    for mutation in &script {
        scratch
            .apply_mutations(std::slice::from_ref(mutation))
            .expect("scratch mutation");
        by_prefix.push(fingerprint(&scratch, &queries));
        positions_by_prefix.push(positions(&scratch));
    }

    let exe = std::env::current_exe().expect("test binary path");
    for (i, run) in runs.iter().enumerate() {
        let label = run.point.unwrap_or("control");
        let dir = battery_dir(i, label);

        let mut cmd = Command::new(&exe);
        cmd.args(["--exact", "durability_child", "--nocapture"])
            .env(DIR_ENV, &dir)
            .env_remove(semask::wal::CRASH_POINT_ENV)
            .env_remove(semask::wal::CRASH_AFTER_ENV)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(point) = run.point {
            cmd.env(semask::wal::CRASH_POINT_ENV, point)
                .env(semask::wal::CRASH_AFTER_ENV, run.after.to_string());
        }
        let status = cmd.status().expect("spawn child");
        if run.point.is_some() {
            assert!(
                !status.success(),
                "{label} (after {}): child was supposed to crash",
                run.after
            );
        } else {
            assert!(status.success(), "control child failed");
        }

        let debris = log_files(&dir);
        assert!(
            debris
                .iter()
                .all(|name| name == "wal.log" || name == "wal.prev"),
            "{label} (after {}): more than two logs: {debris:?}",
            run.after
        );
        let (recovered, report) = SemaSkEngine::recover(
            &dir,
            Arc::new(SimLlm::new()),
            config(),
            Variant::EmbeddingOnly,
        )
        .expect("recover from crash directory");
        assert_eq!(
            log_files(&dir),
            ["wal.log"],
            "{label} (after {}): recovery leaves one log",
            run.after
        );
        let s = report.last_seq;
        assert!(
            run.seq_range.0 <= s && s <= run.seq_range.1,
            "{label} (after {}): recovered seq {s} outside {:?}",
            run.after,
            run.seq_range
        );
        assert_eq!(
            fingerprint(recovered.engine(), &queries),
            by_prefix[s as usize],
            "{label} (after {}): recovered state diverges from a \
             from-scratch engine at prefix {s}",
            run.after
        );
        assert_eq!(
            positions(recovered.engine()),
            positions_by_prefix[s as usize],
            "{label} (after {}): recovered positions diverge at prefix {s}",
            run.after
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A durable **metro** survives a restart: `generate_metro` worlds carry
/// the `METRO` city key, which the snapshot loader used to reject — so a
/// durable metro could be created and written to but never reopened.
#[test]
fn durable_metro_reopens_after_mutations() {
    if std::env::var(DIR_ENV).is_ok() {
        return; // a crash-battery child runs only `durability_child`
    }
    let llm = Arc::new(SimLlm::new());
    let data = datagen::generate_metro(&datagen::MetroConfig::new(2_000, 7));
    let center = data.city.center();
    let prepared = semask::prepare_city(&data, &llm, &config()).expect("prep");
    let engine = SemaSkEngine::new(
        Arc::new(prepared),
        Arc::clone(&llm),
        config(),
        Variant::EmbeddingOnly,
    );
    let dir = battery_dir(0, "metro");
    let durable = DurableEngine::create(engine, &dir, POLICY).expect("create durable metro");
    // Three writes: under the 4-record checkpoint threshold, so reopening
    // replays all of them from the log over the initial snapshot.
    for mutation in scripted(center).into_iter().take(3) {
        durable.mutate(mutation).expect("scripted mutation");
    }
    let queries = probe_queries(center);
    let before = fingerprint(durable.engine(), &queries);
    assert!(
        before[1].iter().any(|&(id, _)| id == 2_001),
        "the second inserted POI answers its own name"
    );
    drop(durable);

    let (reopened, report) = DurableEngine::open(
        &dir,
        Arc::new(SimLlm::new()),
        config(),
        Variant::EmbeddingOnly,
        POLICY,
    )
    .expect("a durable metro reopens");
    assert_eq!(reopened.engine().prepared().city.key, datagen::METRO.key);
    assert_eq!((report.last_seq, report.replayed), (3, 3));
    assert_eq!(fingerprint(reopened.engine(), &queries), before);

    // The committed snapshot is one packed file: the collection, the
    // dataset and the header behind one checksum.
    let current = std::fs::read_to_string(dir.join("CURRENT")).expect("CURRENT");
    let snapshot = std::fs::read(dir.join(current.trim())).expect("the snapshot is a file");
    assert!(snapshot.starts_with(&semask::persist::SNAPSHOT.magic));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Gates the log-rollback child: the log file it appends to.
const WAL_CHILD_ENV: &str = "DURABILITY_WAL_FILE";

/// The three records of the rollback script: two deletes, small enough
/// that both fit under a file-size limit of one block (512 or 1,024
/// bytes, as the shell counts them), and an insert whose tips take it
/// past any such limit.
fn rollback_script() -> [Mutation; 3] {
    let long_tip = "the espresso here survives anything, even a full disk; ".repeat(80);
    [
        Mutation::Delete { id: 1 },
        Mutation::Delete { id: 2 },
        Mutation::Insert(PoiSpec {
            name: "Disk Full Diner".to_owned(),
            lat: 34.4,
            lon: -119.7,
            categories: vec!["diner".to_owned()],
            tips: vec![long_tip],
        }),
    ]
}

/// Child role: runs under a file-size limit, so the write of the third
/// record is cut short. Appends A and syncs it, appends B (not synced),
/// then C, whose append must fail; the log it leaves is the parent's to
/// read.
#[test]
fn wal_rollback_child() {
    let Ok(path) = std::env::var(WAL_CHILD_ENV) else {
        return;
    };
    let [a, b, c] = rollback_script();
    let (mut wal, replayed) = semask::wal::Wal::open(&path).expect("open");
    assert!(replayed.is_empty());
    wal.append(&a).expect("A");
    wal.sync().expect("A is synced");
    wal.append(&b).expect("B");
    assert!(wal.append(&c).is_err(), "C must hit the file-size limit");
}

/// A batch whose append fails leaves nothing in the log: neither its
/// complete records (which the next batch's fsync would make durable,
/// and recovery replay) nor a torn frame (which would hide every record
/// written after it). The child's file-size limit (`ulimit -f`, with
/// `SIGXFSZ` ignored so the write returns an error instead of killing
/// it) cuts record C short after B was appended; the log must reopen
/// holding A alone.
#[cfg(unix)]
#[test]
fn a_failed_append_takes_back_the_unsynced_records() {
    if std::env::var(DIR_ENV).is_ok() || std::env::var(WAL_CHILD_ENV).is_ok() {
        return;
    }
    let [a, b, c] = rollback_script();
    let size = |seq, m: &Mutation| semask::wal::encode_record(seq, m).unwrap().len();
    assert!(size(1, &a) + size(2, &b) < 512);
    assert!(size(1, &a) + size(2, &b) + size(3, &c) > 1_024);

    let dir = battery_dir(0, "wal_rollback");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new("sh")
        .arg("-c")
        .arg("trap '' XFSZ; ulimit -f 1; exec \"$0\" --exact wal_rollback_child --nocapture")
        .arg(&exe)
        .env(WAL_CHILD_ENV, &path)
        .env_remove(DIR_ENV)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child");
    assert!(status.success(), "the child's own checks failed");

    let (_, replayed) = semask::wal::Wal::open(&path).expect("reopen");
    let kept: Vec<(u64, Mutation)> = replayed.into_iter().map(|r| (r.seq, r.mutation)).collect();
    assert_eq!(kept, [(1, a)], "only the synced record survives");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names in `dir` that belong to the log, sorted.
fn log_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("the durable directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("wal"))
        .collect();
    names.sort();
    names
}

fn battery_dir(i: usize, label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("semask_battery_{}_{i}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
