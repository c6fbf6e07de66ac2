//! Durable mutations: WAL + checkpoints + crash recovery around
//! [`SemaSkEngine`].
//!
//! [`DurableEngine`] wraps an engine with the classic write-ahead
//! protocol:
//!
//! 1. **Log** — the batch is validated, appended to `wal.log`, and
//!    fsynced. The fsync is the commit point: a mutation whose record
//!    is durable *will* be applied (now, or by recovery); one whose
//!    record is torn away by a crash is wholly dropped.
//! 2. **Apply** — only after the fsync does the batch mutate the
//!    in-memory engine ([`SemaSkEngine::apply_mutations`]), so queries
//!    never observe state that could be lost.
//! 3. **Checkpoint** — past a size/record threshold
//!    ([`CheckpointPolicy`]) the log folds into a fresh
//!    [`save_prepared`] snapshot and truncates. Sequence numbers never
//!    reset: the snapshot stores `last_applied_seq`, and recovery
//!    replays only records beyond it — a crash *between* snapshot
//!    commit and log truncation re-reads old records but re-applies
//!    none.
//!
//! [`SemaSkEngine::recover`] (a thin wrapper over
//! [`DurableEngine::open`]) rebuilds the exact pre-crash state:
//! load the committed snapshot, replay the WAL suffix through the same
//! apply path live mutations take. The fault-injection battery
//! (`tests/durability.rs`) aborts the process at every
//! [`crate::wal::crash_point`] and checks recovered query results are
//! bit-identical to an engine built from scratch with the surviving
//! mutation prefix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llm::SimLlm;
use parking_lot::Mutex;

use crate::config::SemaSkConfig;
use crate::engine::{EngineError, SemaSkEngine, Variant};
use crate::persist::{load_prepared, save_prepared, PersistError};
use crate::wal::{crash_point, Mutation, Wal, WalError, WalStats};
use geotext::ObjectId;

/// The WAL file name inside a durable engine's directory, next to the
/// snapshot machinery (`CURRENT`, `snap-<k>/`).
const WAL_FILE: &str = "wal.log";

/// When the log folds into a snapshot. Either threshold triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the log holds this many records.
    pub max_records: u64,
    /// Checkpoint once the log reaches this many bytes.
    pub max_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            max_records: 256,
            max_bytes: 4 << 20,
        }
    }
}

/// Errors from the durable layer: the engine apply, the snapshot
/// machinery, or the log itself.
#[derive(Debug)]
#[non_exhaustive]
pub enum DurableError {
    /// The in-memory apply (or batch validation) failed.
    Engine(EngineError),
    /// Snapshot save/load failed.
    Persist(PersistError),
    /// The write-ahead log failed.
    Wal(WalError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Engine(e) => write!(f, "engine: {e}"),
            DurableError::Persist(e) => write!(f, "persist: {e}"),
            DurableError::Wal(e) => write!(f, "wal: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<EngineError> for DurableError {
    fn from(e: EngineError) -> Self {
        DurableError::Engine(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

/// What one durable mutation batch accomplished.
#[derive(Debug, Clone)]
pub struct MutationReceipt {
    /// The mutation epoch readers observe the batch under.
    pub epoch: u64,
    /// Ids assigned to the batch's inserts, in batch order.
    pub inserted: Vec<ObjectId>,
    /// Mutations applied by this batch.
    pub applied: u64,
    /// Log size after the batch (0 right after a checkpoint).
    pub wal_bytes: u64,
    /// `Some(n)` when this batch tripped the checkpoint policy and
    /// folded `n` log records into a snapshot.
    pub checkpoint_records: Option<u64>,
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverReport {
    /// Highest mutation sequence number in the recovered state.
    pub last_seq: u64,
    /// Log records replayed (their seq exceeded the snapshot's fold).
    pub replayed: u64,
    /// Log records skipped because the snapshot already folded them (a
    /// crash hit between snapshot commit and log truncation).
    pub skipped: u64,
}

/// A [`SemaSkEngine`] whose mutations survive crashes.
///
/// Queries go straight to [`DurableEngine::engine`] — durability adds
/// nothing to the read path. Mutations go through
/// [`DurableEngine::mutate`] / [`DurableEngine::mutate_batch`], which
/// serialize writers on the log mutex (the engine's write gate excludes
/// readers; the log mutex orders the loggers).
pub struct DurableEngine {
    engine: SemaSkEngine,
    wal: Mutex<Wal>,
    dir: PathBuf,
    policy: CheckpointPolicy,
    last_checkpoint_records: AtomicU64,
}

impl DurableEngine {
    /// Starts a durable engine in `dir` from a freshly prepared city:
    /// writes the initial snapshot (the recovery baseline) and opens an
    /// empty log.
    ///
    /// # Errors
    /// Snapshot or log I/O failure.
    pub fn create(
        engine: SemaSkEngine,
        dir: &Path,
        policy: CheckpointPolicy,
    ) -> Result<Self, DurableError> {
        save_prepared(engine.prepared(), dir)?;
        let (mut wal, _) = Wal::open(dir.join(WAL_FILE))?;
        wal.ensure_next_seq(engine.prepared().live.last_seq() + 1);
        Ok(Self {
            engine,
            wal: Mutex::new(wal),
            dir: dir.to_path_buf(),
            policy,
            last_checkpoint_records: AtomicU64::new(0),
        })
    }

    /// Reopens a durable engine from `dir`: loads the committed
    /// snapshot, replays the WAL suffix beyond the snapshot's
    /// `last_applied_seq` through the normal apply path, and reports
    /// what it did.
    ///
    /// # Errors
    /// Snapshot/log I/O failure, or an apply failure during replay
    /// (a record inconsistent with the snapshot it follows — indicates
    /// external tampering, since the protocol never logs an invalid
    /// batch).
    pub fn open(
        dir: &Path,
        llm: Arc<SimLlm>,
        config: SemaSkConfig,
        variant: Variant,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoverReport), DurableError> {
        let prepared = Arc::new(load_prepared(dir, &config)?);
        let engine = SemaSkEngine::new(prepared, llm, config, variant);
        let (mut wal, records) = Wal::open(dir.join(WAL_FILE))?;

        let snapshot_seq = engine.prepared().live.last_seq();
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        for record in &records {
            if record.seq <= snapshot_seq {
                skipped += 1;
                continue;
            }
            engine.apply_mutations(std::slice::from_ref(&record.mutation))?;
            engine.prepared().live.set_last_seq(record.seq);
            replayed += 1;
        }
        // A log truncated by a pre-crash checkpoint restarts numbering
        // from its own contents; push it past the snapshot's fold point.
        wal.ensure_next_seq(engine.prepared().live.last_seq() + 1);

        let report = RecoverReport {
            last_seq: engine.prepared().live.last_seq(),
            replayed,
            skipped,
        };
        Ok((
            Self {
                engine,
                wal: Mutex::new(wal),
                dir: dir.to_path_buf(),
                policy,
                last_checkpoint_records: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// The wrapped engine — the query path.
    #[must_use]
    pub fn engine(&self) -> &SemaSkEngine {
        &self.engine
    }

    /// Applies one mutation durably.
    ///
    /// # Errors
    /// See [`DurableEngine::mutate_batch`].
    pub fn mutate(&self, mutation: Mutation) -> Result<MutationReceipt, DurableError> {
        self.mutate_batch(&[mutation])
    }

    /// Logs, fsyncs, applies, and (policy permitting) checkpoints one
    /// mutation batch. The batch is atomic at every layer: invalid
    /// batches are rejected before any record is written; queries
    /// observe all of it or none of it; recovery replays all of it or —
    /// if the crash beat the fsync — none of it.
    ///
    /// # Errors
    /// [`DurableError::Engine`] when validation rejects the batch (the
    /// log and engine are untouched); I/O errors from the log or the
    /// checkpoint otherwise.
    pub fn mutate_batch(&self, mutations: &[Mutation]) -> Result<MutationReceipt, DurableError> {
        let mut wal = self.wal.lock();
        // Validate before logging: the WAL must never hold a batch that
        // cannot apply. The log mutex serializes mutators, so the state
        // validated here is the state the apply below sees.
        self.engine.validate_batch(mutations)?;

        let mut last_seq = 0u64;
        for m in mutations {
            last_seq = wal.append(m)?;
        }
        crash_point("wal-before-fsync");
        wal.sync()?;
        crash_point("wal-after-fsync");

        let batch = self.engine.apply_mutations(mutations)?;
        if last_seq > 0 {
            self.engine.prepared().live.set_last_seq(last_seq);
        }

        let stats = wal.stats();
        let mut checkpoint_records = None;
        if stats.records >= self.policy.max_records || stats.bytes >= self.policy.max_bytes {
            checkpoint_records = Some(self.checkpoint_locked(&mut wal)?);
        }

        Ok(MutationReceipt {
            epoch: batch.epoch,
            inserted: batch.inserted,
            applied: mutations.len() as u64,
            wal_bytes: wal.stats().bytes,
            checkpoint_records,
        })
    }

    /// Forces a checkpoint now, regardless of policy. Returns the number
    /// of log records folded into the snapshot.
    ///
    /// # Errors
    /// Snapshot or log I/O failure.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let mut wal = self.wal.lock();
        self.checkpoint_locked(&mut wal)
    }

    fn checkpoint_locked(&self, wal: &mut Wal) -> Result<u64, DurableError> {
        let folded = wal.stats().records;
        // The snapshot folds the live overlay and stamps
        // `last_applied_seq`; once CURRENT flips, these records are
        // redundant — but they stay until the reset below, so a crash
        // in between merely re-reads (and skips) them on recovery.
        save_prepared(self.engine.prepared(), &self.dir)?;
        crash_point("ckpt-before-reset");
        wal.reset()?;
        crash_point("ckpt-after-reset");
        self.last_checkpoint_records
            .store(folded, Ordering::Relaxed);
        Ok(folded)
    }

    /// Current log statistics.
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        self.wal.lock().stats()
    }

    /// Records folded by the most recent checkpoint (0 before any).
    #[must_use]
    pub fn last_checkpoint_records(&self) -> u64 {
        self.last_checkpoint_records.load(Ordering::Relaxed)
    }

    /// The durable directory this engine logs and snapshots into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl SemaSkEngine {
    /// Recovers a durable engine from `dir` to its exact pre-crash
    /// state: the committed snapshot plus every WAL record beyond it.
    /// Thin wrapper over [`DurableEngine::open`].
    ///
    /// # Errors
    /// See [`DurableEngine::open`].
    pub fn recover(
        dir: &Path,
        llm: Arc<SimLlm>,
        config: SemaSkConfig,
        variant: Variant,
    ) -> Result<(DurableEngine, RecoverReport), DurableError> {
        DurableEngine::open(dir, llm, config, variant, CheckpointPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SemaSkQuery;
    use crate::wal::{PoiSpec, PoiUpdate};
    use datagen::{poi::generate_city, CITIES};
    use geotext::BoundingBox;

    fn fresh_engine() -> (SemaSkEngine, datagen::CityData, Arc<SimLlm>, SemaSkConfig) {
        let data = generate_city(&CITIES[2], 80, 33);
        let llm = Arc::new(SimLlm::new());
        let config = SemaSkConfig::with_fixed_costs();
        let prepared = Arc::new(crate::prep::prepare_city(&data, &llm, &config).unwrap());
        let engine = SemaSkEngine::new(
            prepared,
            Arc::clone(&llm),
            config.clone(),
            Variant::EmbeddingOnly,
        );
        (engine, data, llm, config)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("semask_durable_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mutate_checkpoint_recover_roundtrip() {
        let (engine, data, llm, config) = fresh_engine();
        let dir = tmpdir("roundtrip");
        let durable = DurableEngine::create(
            engine,
            &dir,
            CheckpointPolicy {
                max_records: 3,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();

        let center = data.city.center();
        let r1 = durable
            .mutate(Mutation::Insert(PoiSpec {
                name: "Durable Dumpling House".to_owned(),
                lat: center.lat,
                lon: center.lon,
                categories: vec!["dumplings".to_owned()],
                tips: vec!["get the pork ones".to_owned()],
            }))
            .unwrap();
        assert_eq!(r1.applied, 1);
        assert!(r1.checkpoint_records.is_none());
        let new_id = r1.inserted[0];

        let r2 = durable
            .mutate(Mutation::Update {
                id: new_id.0,
                update: PoiUpdate {
                    name: Some("Durable Dumpling Palace".to_owned()),
                    tips: None,
                },
            })
            .unwrap();
        assert!(r2.checkpoint_records.is_none());

        // Third record trips max_records=3: the log folds and resets.
        let r3 = durable.mutate(Mutation::Delete { id: 0 }).unwrap();
        assert_eq!(r3.checkpoint_records, Some(3));
        assert_eq!(r3.wal_bytes, 0);
        assert_eq!(durable.last_checkpoint_records(), 3);
        assert_eq!(durable.wal_stats().records, 0);

        // A post-checkpoint mutation lands in the fresh log with
        // continuing sequence numbers.
        durable.mutate(Mutation::Delete { id: 1 }).unwrap();
        assert_eq!(durable.wal_stats().records, 1);
        assert_eq!(durable.engine().prepared().live.last_seq(), 4);

        // Recover: snapshot (3 folded) + 1 replayed record.
        let range = BoundingBox::from_center_km(center, 5.0, 5.0);
        let q = SemaSkQuery::new(range, "dumpling palace");
        let before: Vec<_> = durable.engine().query(&q).unwrap().answer_ids();
        drop(durable);

        let (recovered, report) =
            SemaSkEngine::recover(&dir, llm, config, Variant::EmbeddingOnly).unwrap();
        assert_eq!(report.last_seq, 4);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.skipped, 0);
        let after: Vec<_> = recovered.engine().query(&q).unwrap().answer_ids();
        assert_eq!(before, after, "recovery must reproduce the live answers");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_batch_never_reaches_the_log() {
        let (engine, _, _, _) = fresh_engine();
        let dir = tmpdir("invalid");
        let durable = DurableEngine::create(engine, &dir, CheckpointPolicy::default()).unwrap();
        let err = durable.mutate(Mutation::Delete { id: 999_999 });
        assert!(matches!(err, Err(DurableError::Engine(_))));
        assert_eq!(durable.wal_stats().records, 0, "rejected batch not logged");
        assert_eq!(durable.engine().prepared().live.last_seq(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
