//! Durable mutations: WAL + checkpoints + crash recovery around
//! [`SemaSkEngine`].
//!
//! [`DurableEngine`] wraps an engine with the classic write-ahead
//! protocol, a write being the engine's three stages
//! ([`SemaSkEngine::apply_mutations`]) with the log between them:
//!
//! 1. **Begin and log** — the batch takes the engine's writer lock, is
//!    validated and drafted (each insert enriched the way preparation
//!    enriches a base POI, each new set of tips summarized: the batch's
//!    only LLM calls), then appended to `wal.log`.
//! 2. **Prepare beside the fsync** — the log's fsync is the commit
//!    point: a mutation whose record is durable *will* be applied (now,
//!    or by recovery); one whose record is torn away by a crash is
//!    wholly dropped. While it runs the batch is prepared, which changes
//!    nothing a reader sees: the fsync joins the prepare's one
//!    [`vecdb::pool::global`] fan-out
//!    (`SemaSkEngine::prepare_mutations`). The indices are the graph
//!    plans (embed and plan each insert or update; the writer claims
//!    index 0), then one job for the batch's text (every mutation's
//!    corpus terms and the next overlay), then the fsync, which a free
//!    worker takes beside the graph plans (with no worker free, the
//!    writer runs them all, one after the other). If the fsync fails,
//!    the prepared batch is dropped, the log rolls back to its last
//!    sync, and nothing is published.
//! 3. **Commit** — only after the fsync does the batch take the mutation
//!    gate and change the in-memory engine, so queries never observe
//!    state that could be lost, and readers wait only for the commit.
//! 4. **Checkpoint** — past a size/record threshold
//!    ([`CheckpointPolicy`]) the log folds into a fresh snapshot. The
//!    writer that trips the threshold pays only for the first two steps:
//!    - **cut** — still under the log mutex, so no writer can move the
//!      state: [`cut_prepared`] packs the header and the collection into
//!      memory (no text encoding, no checksum), pins the dataset and the
//!      published overlay, and reads the sequence number they all stand
//!      at;
//!    - **rotate** — `wal.log` becomes `wal.prev` by rename and a fresh,
//!      empty `wal.log` continues the numbering ([`Wal::rotate`]). The
//!      writer returns and later batches log into the fresh file;
//!    - **write beside** — one thread runs [`write_snapshot`] on the
//!      cut: pack the dataset section, checksum the file, stage, fsync,
//!      rename, flip `CURRENT`;
//!    - **retire** — the same thread then removes `wal.prev`, whose
//!      every record the committed snapshot now contains.
//!
//!    Sequence numbers never restart: the snapshot stores
//!    `last_applied_seq`, and recovery replays only records beyond it.
//!
//! **Two logs, never more.** At most one checkpoint is in flight — the
//! next trigger, [`DurableEngine::checkpoint`] and `Drop` join it — and
//! `wal.prev` exists from a rotation until the snapshot cut at that
//! rotation has committed, so a directory holds `wal.log` and at most
//! one `wal.prev`, the older records in the latter. Recovery reads
//! `wal.prev` (if present) and then `wal.log` through the same
//! `seq > last_applied_seq` filter:
//!
//! | crash…                                    | on disk                             | recovery                                    |
//! |-------------------------------------------|-------------------------------------|---------------------------------------------|
//! | before the rotation                       | old snapshot, `wal.log`             | replays `wal.log`                           |
//! | after it, before `CURRENT` flips          | old snapshot, `wal.prev`, `wal.log` | replays both, in order                      |
//! | after the flip, before `wal.prev` is gone | new snapshot, `wal.prev`, `wal.log` | skips all of `wal.prev`, replays `wal.log`  |
//! | after the retire                          | new snapshot, `wal.log`             | replays `wal.log`                           |
//!
//! and a reopen that found a `wal.prev` folds both logs into one
//! synchronous checkpoint before it takes writes, so a rotation never
//! meets an occupied name. Because that fold retires `wal.prev`,
//! recovery refuses — before anything is written — a `wal.prev` that
//! does not decode to its end (it was synced whole before the rotation,
//! so damage there is not a torn tail) and a replayed record whose
//! sequence number is not one past the last applied, counting from the
//! snapshot's `last_applied_seq`: replaying around either would fold a
//! hole into the new snapshot and delete the log that could explain it.
//!
//! **A failed checkpoint loses nothing and fails no write.** The batch
//! that tripped the policy was logged, fsynced and applied before the
//! cut; it returns `Ok` whatever happens to the snapshot. A snapshot that
//! cannot be written leaves `wal.prev` in place (recovery replays it);
//! the error goes to the first [`DurableEngine::mutate_batch`] that
//! finds the checkpoint ended — before that call logs anything — or to
//! [`DurableEngine::checkpoint`], whichever comes first, and the next
//! trigger cuts again over both logs — without rotating: `wal.prev`
//! keeps its name until a snapshot holding its records commits, and
//! `wal.log` rotates at the trigger after that.
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
use std::sync::Arc;
use std::thread::JoinHandle;

use llm::SimLlm;
use parking_lot::Mutex;

use crate::config::SemaSkConfig;
use crate::engine::{EngineError, SemaSkEngine, Variant};
use crate::persist::{cut_prepared, load_prepared, save_prepared, write_snapshot, PersistError};
use crate::wal::{crash_point, decode, Mutation, Wal, WalError, WalStats};
use geotext::ObjectId;

/// The active log inside a durable engine's directory, next to the
/// snapshot machinery (`CURRENT`, `snap-<k>`).
const WAL_FILE: &str = "wal.log";
/// The log a checkpoint rotated out, until its snapshot commits.
const WAL_PREV: &str = "wal.prev";

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
    /// Size of the active log (`wal.log`) after the batch; 0 right after
    /// a rotation, so it falls between a checkpointing batch and the
    /// one before it.
    pub wal_bytes: u64,
    /// `Some(n)` on the batch that *started* folding `n` log records
    /// into a snapshot: it tripped the checkpoint policy, took the cut
    /// and rotated the log. The snapshot itself is written after the
    /// batch returns; whether it committed is the next
    /// [`DurableEngine::mutate_batch`]'s or
    /// [`DurableEngine::checkpoint`]'s to report.
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
    /// crash hit between snapshot commit and the removal of `wal.prev`).
    pub skipped: u64,
}

/// The checkpoint the last trigger started: the thread writing and
/// committing its snapshot, or the error that kept it from starting.
type Started = Result<JoinHandle<Result<(), DurableError>>, DurableError>;

/// What the log mutex guards: the active log and the one checkpoint
/// that may be in flight beside it.
struct Log {
    wal: Wal,
    /// Set by a trigger; taken (and joined) by the next trigger,
    /// `checkpoint()` and `Drop`, or by a write that finds it ended.
    checkpoint: Option<Started>,
}

impl Log {
    /// True when a started checkpoint has run to its end, so that
    /// [`Log::settle`] has its verdict without waiting.
    fn checkpoint_ended(&self) -> bool {
        self.checkpoint
            .as_ref()
            .is_some_and(|c| c.as_ref().map_or(true, JoinHandle::is_finished))
    }

    /// Joins the checkpoint in flight, if any, and returns how it ended.
    fn settle(&mut self) -> Result<(), DurableError> {
        match self.checkpoint.take() {
            None => Ok(()),
            Some(started) => started?.join().expect("the snapshot thread does not panic"),
        }
    }
}

/// Removes `wal.prev` once a committed snapshot holds its records. No
/// directory fsync: a removal undone by a crash leaves a log recovery
/// skips record for record.
fn retire(prev: &Path) -> Result<(), WalError> {
    Ok(std::fs::remove_file(prev)?)
}

/// A [`SemaSkEngine`] whose mutations survive crashes.
///
/// Queries go straight to [`DurableEngine::engine`] — durability adds
/// nothing to the read path. Mutations go through
/// [`DurableEngine::mutate`] / [`DurableEngine::mutate_batch`], which
/// serialize writers on the log mutex (the log mutex orders the loggers,
/// the engine's writer lock the appliers, and its gate excludes readers
/// only while a batch commits). Dropping the engine joins
/// the checkpoint in flight: no thread outlives it in its directory.
pub struct DurableEngine {
    engine: SemaSkEngine,
    log: Mutex<Log>,
    dir: PathBuf,
    policy: CheckpointPolicy,
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
        Ok(Self::over(engine, wal, dir, policy))
    }

    fn over(engine: SemaSkEngine, wal: Wal, dir: &Path, policy: CheckpointPolicy) -> Self {
        Self {
            engine,
            log: Mutex::new(Log {
                wal,
                checkpoint: None,
            }),
            dir: dir.to_path_buf(),
            policy,
        }
    }

    /// Reopens a durable engine from `dir`: loads the committed
    /// snapshot, replays `wal.prev` (if a checkpoint was cut short) and
    /// then `wal.log` beyond the snapshot's `last_applied_seq` through
    /// the normal apply path, and reports what it did. If there was a
    /// `wal.prev`, both logs are folded into a new snapshot before this
    /// returns, leaving one empty log.
    ///
    /// # Errors
    /// Snapshot/log I/O failure; a `wal.prev` that does not decode to
    /// its end ([`WalError::Incomplete`]: it was synced whole before it
    /// was rotated out, so it has no torn tail to cut); a record in
    /// either log that passes its checksum but does not decode
    /// ([`WalError::Undecodable`]); a replayed record that is not the
    /// one after the last applied, counting from the snapshot's
    /// `last_applied_seq` ([`WalError::SequenceGap`]); or an apply
    /// failure during replay (a record inconsistent with the snapshot it
    /// follows — indicates external tampering, since the protocol never
    /// logs an invalid batch). Each is found before a snapshot or a log
    /// is written; a damaged `wal.prev` even before loading the snapshot
    /// removes stale staging files. Only a torn tail of `wal.log` is
    /// cut ([`Wal::open`]).
    pub fn open(
        dir: &Path,
        llm: Arc<SimLlm>,
        config: SemaSkConfig,
        variant: Variant,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoverReport), DurableError> {
        // `wal.prev` is judged first: damage there is refused before
        // loading the snapshot cleans up anything.
        let prev_path = dir.join(WAL_PREV);
        let prev = match std::fs::read(&prev_path) {
            Ok(bytes) => {
                let log = decode(&bytes);
                if log.consumed != bytes.len() {
                    return Err(WalError::Incomplete {
                        offset: log.consumed as u64,
                        len: bytes.len() as u64,
                    }
                    .into());
                }
                Some(log.records)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(WalError::Io(e).into()),
        };
        let prepared = Arc::new(load_prepared(dir, &config)?);
        let engine = SemaSkEngine::new(prepared, llm, config, variant);
        let (mut wal, records) = Wal::open(dir.join(WAL_FILE))?;

        let snapshot_seq = engine.prepared().live.last_seq();
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        for record in prev.iter().flatten().chain(&records) {
            if record.seq <= snapshot_seq {
                skipped += 1;
                continue;
            }
            let expected = engine.prepared().live.last_seq() + 1;
            if record.seq != expected {
                return Err(WalError::SequenceGap {
                    expected,
                    found: record.seq,
                }
                .into());
            }
            engine.apply_mutations(std::slice::from_ref(&record.mutation))?;
            engine.prepared().live.set_last_seq(record.seq);
            replayed += 1;
        }
        // A log a pre-crash checkpoint left empty restarts numbering
        // from its own contents; push it past the snapshot's fold point.
        wal.ensure_next_seq(engine.prepared().live.last_seq() + 1);

        if prev.is_some() {
            // Fold both logs now, while nothing writes: the first
            // rotation must find the name `wal.prev` free.
            save_prepared(engine.prepared(), dir)?;
            retire(&prev_path)?;
            wal.rotate(&prev_path)?;
            retire(&prev_path)?;
        }

        let report = RecoverReport {
            last_seq: engine.prepared().live.last_seq(),
            replayed,
            skipped,
        };
        Ok((Self::over(engine, wal, dir, policy), report))
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

    /// Logs, prepares while the log fsyncs, commits, and (policy
    /// permitting) starts a checkpoint for one mutation batch. A receipt
    /// comes back only after the batch's records are durable. The batch
    /// is atomic at every
    /// layer: invalid batches are rejected before any record is written;
    /// queries observe all of it or none of it; recovery replays all of
    /// it or — if the crash beat the fsync — none of it.
    ///
    /// # Errors
    /// An `Err` before the fsync means this batch was neither logged nor
    /// applied: [`DurableError::Engine`] when validation or drafting
    /// rejects it (an invalid mutation, a failed tip summary), log I/O
    /// errors, or the failure of a checkpoint an *earlier* batch started
    /// (returned once, before this batch is looked at; the batch can be
    /// submitted again). Only a vector-database error planning or
    /// storing one of the batch's points can follow the fsync: the batch
    /// is then durable but not published, and reopening the directory
    /// replays its record. A batch that was logged and applied returns
    /// `Ok` even if the checkpoint it then starts fails.
    pub fn mutate_batch(&self, mutations: &[Mutation]) -> Result<MutationReceipt, DurableError> {
        let mut log = self.log.lock();
        if log.checkpoint_ended() {
            log.settle()?;
        }
        // Validate and draft before logging: the WAL must never hold a
        // batch that cannot apply, and drafting makes the batch's LLM
        // calls. The turn holds the engine's writer lock, so the state
        // validated here is the state the batch commits over.
        let turn = self.engine.begin_mutations(mutations)?;

        let mut last_seq = 0u64;
        for m in mutations {
            last_seq = log.wal.append(m)?;
        }
        crash_point("wal-before-fsync");
        // The batch is prepared while its records sync (module docs).
        // Preparing changes nothing a reader sees, so a failed fsync only
        // has to drop it.
        let wal = &mut log.wal;
        // Crash point `wal-prepared` fires inside the prepare, while the
        // fsync may still be running.
        let (prepared, synced) = self.engine.prepare_mutations(&turn, Some(|| wal.sync()));
        synced.expect("the fsync runs beside the prepare")?;
        crash_point("wal-after-fsync");

        let prepared = prepared?;
        let batch = self.engine.commit_mutations(turn, prepared)?;
        if last_seq > 0 {
            self.engine.prepared().live.set_last_seq(last_seq);
        }

        let stats = log.wal.stats();
        let mut checkpoint_records = None;
        if stats.records >= self.policy.max_records || stats.bytes >= self.policy.max_bytes {
            // The batch is committed; how the checkpoint fares — the
            // one still in flight or the one starting now — is a later
            // call's to report.
            let started = log
                .settle()
                .and_then(|()| self.start_checkpoint(&mut log.wal));
            if started.is_ok() {
                checkpoint_records = Some(stats.records);
            }
            log.checkpoint = Some(started);
        }

        Ok(MutationReceipt {
            epoch: batch.epoch,
            inserted: batch.inserted,
            applied: mutations.len() as u64,
            wal_bytes: log.wal.stats().bytes,
            checkpoint_records,
        })
    }

    /// Forces a checkpoint now, regardless of policy, and waits for it
    /// to commit. Returns the number of records it rotated out of the
    /// active log (a checkpoint that follows a failed one also folds
    /// the `wal.prev` that one left, counted when it rotated).
    ///
    /// # Errors
    /// The failure of a checkpoint started earlier, if one is pending —
    /// then nothing new is attempted — or snapshot / log I/O failure of
    /// this one.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let mut log = self.log.lock();
        log.settle()?;
        let folded = log.wal.stats().records;
        log.checkpoint = Some(Ok(self.start_checkpoint(&mut log.wal)?));
        log.settle()?;
        Ok(folded)
    }

    /// Cut and rotate, on the caller's thread and under the log mutex;
    /// write and retire on the thread returned. The caller has joined
    /// any earlier checkpoint.
    fn start_checkpoint(
        &self,
        wal: &mut Wal,
    ) -> Result<JoinHandle<Result<(), DurableError>>, DurableError> {
        let cut = cut_prepared(self.engine.prepared())?;
        let prev = self.dir.join(WAL_PREV);
        // A `wal.prev` still here was left by a failed checkpoint. The
        // cut holds its records too; a rotation would replace it with
        // records no committed snapshot has.
        if !prev.exists() {
            wal.rotate(&prev)?;
        }
        crash_point("ckpt-after-rotate");
        let dir = self.dir.clone();
        Ok(std::thread::spawn(move || {
            // Once CURRENT flips, every record of `wal.prev` is
            // redundant — but the file stays until the retire, so a
            // crash in between merely re-reads (and skips) them.
            write_snapshot(cut, &dir)?;
            crash_point("ckpt-before-reset");
            retire(&prev)?;
            crash_point("ckpt-after-reset");
            Ok(())
        }))
    }

    /// Statistics of the active log (`wal.log`).
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        self.log.lock().wal.stats()
    }

    /// The durable directory this engine logs and snapshots into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for DurableEngine {
    fn drop(&mut self) {
        // A snapshot that fails here loses nothing: `wal.prev` stays
        // and the next `open` folds it.
        if let Some(Ok(writing)) = self.log.get_mut().checkpoint.take() {
            let _ = writing.join();
        }
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
        let config = SemaSkConfig::default();
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

    fn insert(name: &str, at: geotext::GeoPoint) -> Mutation {
        Mutation::Insert(PoiSpec {
            name: name.to_owned(),
            lat: at.lat,
            lon: at.lon,
            categories: vec!["dumplings".to_owned()],
            tips: vec!["get the pork ones".to_owned()],
        })
    }

    /// Everything in `dir`, by name, sorted.
    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The names in `dir` that belong to the log.
    fn log_files(dir: &Path) -> Vec<String> {
        let mut names = names_in(dir);
        names.retain(|n| n.starts_with("wal"));
        names
    }

    fn seqs_in(path: &Path) -> Vec<u64> {
        let records = decode(&std::fs::read(path).unwrap()).records;
        records.iter().map(|r| r.seq).collect()
    }

    /// Where each record of a whole log starts, read from the length
    /// in its header.
    fn record_starts(log: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = 0;
        while at < log.len() {
            starts.push(at);
            at += 8 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        }
        starts
    }

    /// Every file in `dir` with its bytes, by name.
    fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
        names_in(dir)
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect()
    }

    fn current(dir: &Path) -> String {
        std::fs::read_to_string(dir.join("CURRENT")).unwrap()
    }

    /// Makes every snapshot commit in `dir` fail, deterministically: the
    /// `CURRENT` flip stages the pointer in a file of this name, and a
    /// directory cannot be opened for writing.
    fn block_commits(dir: &Path) -> PathBuf {
        let squatter = dir.join("CURRENT.tmp");
        std::fs::create_dir(&squatter).unwrap();
        squatter
    }

    #[test]
    fn a_failed_checkpoint_fails_no_committed_write() {
        let (engine, data, llm, config) = fresh_engine();
        let dir = tmpdir("failed_ckpt");
        let policy = CheckpointPolicy {
            max_records: 2,
            max_bytes: u64::MAX,
        };
        let durable = DurableEngine::create(engine, &dir, policy).unwrap();
        let squatter = block_commits(&dir);
        let center = data.city.center();
        let q = SemaSkQuery::new(
            BoundingBox::from_center_km(center, 5.0, 5.0),
            "unlucky dumpling counter",
        );

        durable.mutate(Mutation::Delete { id: 0 }).unwrap();
        // The tripping write is logged, fsynced and applied: it is `Ok`
        // and visible whatever becomes of the snapshot.
        let tripping = durable
            .mutate(insert("Unlucky Dumpling Counter", center))
            .expect("a committed write is not failed by its checkpoint");
        assert_eq!(tripping.checkpoint_records, Some(2));
        assert_eq!(tripping.wal_bytes, 0, "the log rotated");
        let id = tripping.inserted[0];
        assert!(durable
            .engine()
            .query(&q)
            .unwrap()
            .answer_ids()
            .contains(&id));

        // The failure is the next call's answer, and nothing is lost:
        // the old snapshot is current and `wal.prev` holds the records.
        assert!(matches!(
            durable.checkpoint(),
            Err(DurableError::Persist(_))
        ));
        assert_eq!(current(&dir), "snap-0");
        assert_eq!(log_files(&dir), ["wal.log", "wal.prev"]);
        assert_eq!(seqs_in(&dir.join(WAL_PREV)), [1, 2]);

        // A write reports it too, before it logs anything. The second
        // trigger finds `wal.prev` occupied and must not rotate over it.
        durable.mutate(Mutation::Delete { id: 1 }).unwrap();
        let again = durable.mutate(Mutation::Delete { id: 2 }).unwrap();
        assert_eq!(again.checkpoint_records, Some(2));
        assert_eq!(seqs_in(&dir.join(WAL_PREV)), [1, 2]);
        assert_eq!(seqs_in(&dir.join(WAL_FILE)), [3, 4]);
        // The snapshot thread may or may not have ended when the next
        // write arrives; one that arrives early commits, trips the
        // policy, joins the thread there and leaves the error to the
        // write after it.
        let mut reported = false;
        for victim in 3..6 {
            let before = (
                durable.engine().prepared().live.last_seq(),
                durable.wal_stats(),
            );
            match durable.mutate(Mutation::Delete { id: victim }) {
                Ok(receipt) => assert_eq!(receipt.checkpoint_records, None),
                Err(DurableError::Persist(_)) => {
                    let after = (
                        durable.engine().prepared().live.last_seq(),
                        durable.wal_stats(),
                    );
                    assert_eq!(before, after, "the reporting call logged nothing");
                    reported = true;
                    break;
                }
                Err(e) => panic!("expected the checkpoint's failure, got {e}"),
            }
        }
        assert!(reported, "a failed checkpoint is not swallowed");

        // With the obstacle gone the next checkpoint folds both logs.
        std::fs::remove_dir(&squatter).unwrap();
        durable.checkpoint().expect("checkpoint after the obstacle");
        assert_ne!(current(&dir), "snap-0");
        assert_eq!(log_files(&dir), ["wal.log"]);
        let last_seq = durable.engine().prepared().live.last_seq();
        drop(durable);

        let (reopened, report) =
            SemaSkEngine::recover(&dir, llm, config, Variant::EmbeddingOnly).unwrap();
        assert_eq!((report.last_seq, report.replayed), (last_seq, 0));
        assert!(reopened
            .engine()
            .query(&q)
            .unwrap()
            .answer_ids()
            .contains(&id));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_reads_two_logs_and_leaves_one_empty() {
        let (engine, data, llm, config) = fresh_engine();
        let dir = tmpdir("two_logs");
        let policy = CheckpointPolicy {
            max_records: 4,
            max_bytes: u64::MAX,
        };
        let durable = DurableEngine::create(engine, &dir, policy).unwrap();
        block_commits(&dir);
        let center = data.city.center();

        // Records 1-4 rotate into `wal.prev`, their snapshot fails;
        // 5-6 land in the fresh log.
        durable.mutate(insert("Two Log Dumplings", center)).unwrap();
        for id in 0..3 {
            durable.mutate(Mutation::Delete { id }).unwrap();
        }
        assert!(durable.checkpoint().is_err());
        durable
            .mutate(insert("Second Log Dumplings", center))
            .unwrap();
        durable.mutate(Mutation::Delete { id: 3 }).unwrap();
        let q = SemaSkQuery::new(
            BoundingBox::from_center_km(center, 5.0, 5.0),
            "log dumplings",
        );
        let before = durable.engine().query(&q).unwrap().answer_ids();
        drop(durable);
        assert_eq!(current(&dir), "snap-0");
        assert_eq!(seqs_in(&dir.join(WAL_PREV)), [1, 2, 3, 4]);
        assert_eq!(seqs_in(&dir.join(WAL_FILE)), [5, 6]);

        let (reopened, report) =
            DurableEngine::open(&dir, llm, config, Variant::EmbeddingOnly, policy).unwrap();
        assert_eq!(
            report,
            RecoverReport {
                last_seq: 6,
                replayed: 6,
                skipped: 0
            }
        );
        assert_eq!(reopened.engine().query(&q).unwrap().answer_ids(), before);
        // Both logs were folded before the engine took a write.
        assert_ne!(current(&dir), "snap-0");
        assert_eq!(log_files(&dir), ["wal.log"]);
        assert_eq!(
            reopened.wal_stats(),
            WalStats {
                records: 0,
                bytes: 0,
                next_seq: 7
            }
        );
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `wal.prev` was synced whole before it was rotated out, and the
    /// two logs number their records one after another from the
    /// snapshot on. Damage in the middle of `wal.prev`, or a record
    /// missing from `wal.log`, is refused before anything is written —
    /// not replayed around and then folded into a snapshot.
    #[test]
    fn recovery_refuses_a_damaged_prev_log_and_a_sequence_gap() {
        let (engine, data, llm, config) = fresh_engine();
        let dir = tmpdir("refuses_gaps");
        let policy = CheckpointPolicy {
            max_records: 4,
            max_bytes: u64::MAX,
        };
        let durable = DurableEngine::create(engine, &dir, policy).unwrap();
        let squatter = block_commits(&dir);
        let center = data.city.center();
        durable.mutate(insert("Gap Dumplings", center)).unwrap();
        for id in 0..3 {
            durable.mutate(Mutation::Delete { id }).unwrap();
        }
        assert!(durable.checkpoint().is_err());
        durable.mutate(insert("After The Gap", center)).unwrap();
        durable.mutate(Mutation::Delete { id: 3 }).unwrap();
        drop(durable);
        std::fs::remove_dir(squatter).unwrap();
        // The failed checkpoint's staged snapshot goes with the first
        // load, refusal or not; sweep it now so what remains is data.
        load_prepared(&dir, &config).unwrap();
        assert_eq!(seqs_in(&dir.join(WAL_PREV)), [1, 2, 3, 4]);
        assert_eq!(seqs_in(&dir.join(WAL_FILE)), [5, 6]);
        let intact = contents(&dir);
        let open = || {
            DurableEngine::open(
                &dir,
                Arc::clone(&llm),
                config.clone(),
                Variant::EmbeddingOnly,
                policy,
            )
        };

        // One byte of record 2's payload flipped: records 3 and 4 would
        // be dropped without a word.
        let prev = std::fs::read(dir.join(WAL_PREV)).unwrap();
        let second = record_starts(&prev)[1];
        let mut damaged = prev.clone();
        damaged[second + 12] ^= 0x01;
        std::fs::write(dir.join(WAL_PREV), &damaged).unwrap();
        let before = contents(&dir);
        let refused = open().err();
        assert!(
            matches!(
                refused,
                Some(DurableError::Wal(WalError::Incomplete { offset, len }))
                    if offset == second as u64 && len == prev.len() as u64
            ),
            "{refused:?}"
        );
        assert!(contents(&dir) == before, "no byte in the directory changed");
        std::fs::write(dir.join(WAL_PREV), &prev).unwrap();

        // Record 5 gone from the active log.
        let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let sixth = record_starts(&log)[1];
        std::fs::write(dir.join(WAL_FILE), &log[sixth..]).unwrap();
        let before = contents(&dir);
        let refused = open().err();
        assert!(
            matches!(
                refused,
                Some(DurableError::Wal(WalError::SequenceGap {
                    expected: 5,
                    found: 6
                }))
            ),
            "{refused:?}"
        );
        assert!(contents(&dir) == before, "no byte in the directory changed");

        // Whole again, the directory recovers.
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        assert!(contents(&dir) == intact);
        let (_, report) = open().unwrap();
        assert_eq!(report.last_seq, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_of_the_json_format_is_refused_not_cut() {
        let (engine, _, llm, config) = fresh_engine();
        let dir = tmpdir("json_log");
        let policy = CheckpointPolicy::default();
        drop(DurableEngine::create(engine, &dir, policy).unwrap());
        let json_log = include_bytes!("../tests/fixtures/wal-json-parent.log");
        std::fs::write(dir.join(WAL_FILE), json_log).unwrap();
        let before = contents(&dir);
        let refused = DurableEngine::open(&dir, llm, config, Variant::EmbeddingOnly, policy).err();
        assert!(
            matches!(
                refused,
                Some(DurableError::Wal(WalError::Undecodable { offset: 0 }))
            ),
            "{refused:?}"
        );
        assert!(contents(&dir) == before, "no byte in the directory changed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_right_after_a_trigger_leaves_a_committed_checkpoint() {
        let (engine, data, llm, config) = fresh_engine();
        let dir = tmpdir("drop_joins");
        let policy = CheckpointPolicy {
            max_records: 2,
            max_bytes: u64::MAX,
        };
        let durable = DurableEngine::create(engine, &dir, policy).unwrap();
        durable
            .mutate(insert("Last Call Dumplings", data.city.center()))
            .unwrap();
        let tripping = durable.mutate(Mutation::Delete { id: 0 }).unwrap();
        assert_eq!(tripping.checkpoint_records, Some(2));
        drop(durable);

        // Drop joined the snapshot thread: nothing is half done and
        // nothing still runs in the directory.
        assert_eq!(current(&dir), "snap-1");
        assert_eq!(names_in(&dir), ["CURRENT", "snap-1", "wal.log"]);
        let (_, report) = SemaSkEngine::recover(&dir, llm, config, Variant::EmbeddingOnly).unwrap();
        assert_eq!(
            (report.last_seq, report.replayed, report.skipped),
            (2, 0, 0)
        );
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
