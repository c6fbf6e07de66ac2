//! Write-ahead log for live engine mutations.
//!
//! The jdb_wal idiom, specialized to POI mutations: an append-only file
//! of length-prefixed, CRC-checksummed records, fsynced once per
//! mutation batch before the in-memory apply. Each record is
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! where the payload is the JSON encoding of a [`WalRecord`] — a
//! monotonically increasing sequence number plus one [`Mutation`].
//! Sequence numbers never restart, even across the checkpoints that
//! rotate the log ([`Wal::rotate`]): the snapshot records the last
//! sequence it folded (`last_applied_seq` in its header), and recovery
//! replays only the records beyond it — so a crash *between* snapshot
//! commit and the removal of the rotated-out log can never double-apply
//! a mutation.
//!
//! [`Wal::open`] replays the longest valid prefix and truncates the
//! file at the first torn or corrupt record — a partial tail write (the
//! crash case) or a flipped bit (the corruption case) drops that record
//! and everything after it, never a panic and never a partial apply. A
//! record whose checksum holds but that does not decode is neither: no
//! crash writes one, another encoder did. Cutting there would delete
//! writes that were already synced, so `open` refuses the file with
//! [`WalError::Undecodable`] and leaves it as it is. The pure [`decode`]
//! seam tells the two stops apart ([`LogEnd`]); [`decode_buffer`] is its
//! records and length, what the proptest battery drives with arbitrary
//! truncations and bit flips.
//!
//! The crash-point seam ([`crash_point`]) lets the fault-injection
//! battery abort the process at named points (before/after the fsync,
//! after the rotation, mid-snapshot): export
//! `SEMASK_CRASH_POINT=<name>` (and optionally `SEMASK_CRASH_AFTER=<k>`
//! to survive the first `k-1` hits) in a child process and it dies
//! exactly there.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use serde::{Deserialize, Serialize};

/// The record checksum — the one CRC-32 the workspace has, shared with
/// the collection snapshot format.
pub use vecdb::crc32;

/// Everything needed to create one new POI through the live mutation
/// path. Mirrors the generated attributes the offline pipeline consumes:
/// the engine runs the same enrichment (reverse geocoding, tip
/// summarization, embedding) on insert that `prepare_city` runs at prep
/// time, so a live-inserted POI is indistinguishable from a prepared one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoiSpec {
    /// Display name (also a textual attribute and part of the payload).
    pub name: String,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Category labels.
    pub categories: Vec<String>,
    /// Raw customer tips (summarized by the LLM on apply, exactly as at
    /// prep time).
    pub tips: Vec<String>,
}

/// A partial update to an existing POI. `None` fields keep their
/// current value. Changing `tips` re-runs summarization and re-embeds;
/// changing `name` rewrites the payload and re-embeds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PoiUpdate {
    /// New display name.
    pub name: Option<String>,
    /// Replacement tip list (re-summarized on apply).
    pub tips: Option<Vec<String>>,
}

/// One logical engine mutation — the unit of WAL durability and of
/// in-memory apply. A mutation is either wholly durable (its record
/// survives in the snapshot or the log) or wholly dropped; recovery
/// never applies half of one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Create a new POI; the engine assigns the next dense id.
    Insert(PoiSpec),
    /// Partially update the POI with dense id `id`.
    Update {
        /// Dense object id of the POI to update.
        id: u32,
        /// The fields to change.
        update: PoiUpdate,
    },
    /// Tombstone the POI with dense id `id` (the id stays allocated so
    /// the dataset keeps dense ids; the object stops matching queries).
    Delete {
        /// Dense object id of the POI to delete.
        id: u32,
    },
}

/// One durable log entry: a mutation stamped with its sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based, never reused).
    pub seq: u64,
    /// The mutation itself.
    pub mutation: Mutation,
}

/// Errors from the WAL layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A record failed to encode (never expected for well-formed
    /// mutations; kept explicit rather than panicking in a durability
    /// path).
    Encode(String),
    /// The record at byte `offset` passes its checksum but does not
    /// decode: another encoder wrote it, no crash did. The file is left
    /// as it is.
    Undecodable {
        /// Where the record starts.
        offset: u64,
    },
    /// A log that was synced whole — one rotated out at a checkpoint —
    /// stops decoding at byte `offset` of `len`.
    Incomplete {
        /// Where decoding stopped.
        offset: u64,
        /// The file's length.
        len: u64,
    },
    /// Recovery met a record that is not the one after the last it
    /// applied: records between are missing.
    SequenceGap {
        /// The sequence number the next record had to carry.
        expected: u64,
        /// The one it carried.
        found: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Encode(e) => write!(f, "wal encode: {e}"),
            WalError::Undecodable { offset } => write!(
                f,
                "wal record at byte {offset} passes its checksum but does not decode"
            ),
            WalError::Incomplete { offset, len } => write!(
                f,
                "a rotated-out wal stops decoding at byte {offset} of {len}"
            ),
            WalError::SequenceGap { expected, found } => write!(
                f,
                "wal sequence gap: expected record {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Header bytes before each record's payload: length + checksum.
const RECORD_HEADER: usize = 8;
/// Upper bound on one record's payload; a decoded length beyond this is
/// treated as a torn/corrupt header rather than an allocation request.
const MAX_PAYLOAD: u32 = 64 << 20;

/// Encodes one `(seq, mutation)` into its on-disk record bytes
/// (header + payload). Pure; the bench and proptest batteries call this
/// directly.
///
/// # Errors
/// [`WalError::Encode`] if JSON serialization fails.
pub fn encode_record(seq: u64, mutation: &Mutation) -> Result<Vec<u8>, WalError> {
    let record = WalRecord {
        seq,
        mutation: mutation.clone(),
    };
    let payload = serde_json::to_string(&record).map_err(|e| WalError::Encode(e.to_string()))?;
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Why decoding a log stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEnd {
    /// At the end of the buffer: every byte decoded.
    Whole,
    /// At a record a crash or a flipped bit leaves: a header or payload
    /// past the end of the buffer, a length past the bound, a checksum
    /// that fails, or an empty record — what a zero-filled tail reads
    /// as, and nothing the encoder writes.
    Torn,
    /// At a record whose checksum holds but that does not decode.
    Undecodable,
}

/// The longest valid record prefix of a log, and why it ends there.
#[derive(Debug)]
pub struct Decoded {
    /// The records of the prefix, in order.
    pub records: Vec<WalRecord>,
    /// The bytes they span: where the stopping record starts.
    pub consumed: usize,
    /// Why decoding stopped at `consumed`.
    pub end: LogEnd,
}

/// Decodes the longest valid record prefix of `buf`, without panicking
/// on any input, and says why it stopped ([`LogEnd`]).
#[must_use]
pub fn decode(buf: &[u8]) -> Decoded {
    let mut records = Vec::new();
    let mut at = 0usize;
    let end = loop {
        if at == buf.len() {
            break LogEnd::Whole;
        }
        let Some(header) = buf.get(at..at + RECORD_HEADER) else {
            break LogEnd::Torn;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let start = at + RECORD_HEADER;
        let payload = buf.get(start..start + len as usize);
        let Some(payload) = payload.filter(|p| len <= MAX_PAYLOAD && !p.is_empty()) else {
            break LogEnd::Torn;
        };
        if crc32(payload) != stored_crc {
            break LogEnd::Torn;
        }
        let record = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| serde_json::from_str::<WalRecord>(text).ok());
        let Some(record) = record else {
            break LogEnd::Undecodable;
        };
        records.push(record);
        at = start + len as usize;
    };
    Decoded {
        records,
        consumed: at,
        end,
    }
}

/// [`decode`]'s records and the bytes they span, whatever the stop:
/// `consumed` is where [`Wal::open`] truncates a torn file.
#[must_use]
pub fn decode_buffer(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let Decoded {
        records, consumed, ..
    } = decode(buf);
    (records, consumed)
}

/// Aggregate state of an open log, for checkpoint policies and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records currently in the file.
    pub records: u64,
    /// File length in bytes.
    pub bytes: u64,
    /// The sequence number the next append will be stamped with.
    pub next_seq: u64,
}

/// An open write-ahead log file.
///
/// Appends are buffered in the kernel until [`Wal::sync`]; the durable
/// commit point of a mutation batch is the fsync, and the caller applies
/// the batch in memory only after it.
///
/// **A failure takes back everything since the last sync.** When an
/// append or a sync fails, the file is cut back to its length at the
/// last successful sync (or open, or rotation) and the counters with it,
/// so no record of the failed batch — a complete one the next sync would
/// make durable, or a torn one that would hide every record written
/// after it — stays in the log. If that cut itself fails, the log refuses
/// every later append until it is reopened; the file then holds what a
/// crash at that moment would have left.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// What [`Wal::stats`] reports.
    stats: WalStats,
    /// `stats` as of the last successful sync, open or rotation: what a
    /// failure rolls back to.
    synced: WalStats,
    /// Set when a rollback failed: the file may hold records of a failed
    /// batch, so nothing more may be appended behind them.
    broken: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays its valid
    /// record prefix, and truncates any torn or corrupt tail in place so
    /// the next append lands on a clean boundary. Never panics on a
    /// damaged file — damage costs the damaged suffix, nothing more.
    ///
    /// # Errors
    /// [`WalError::Io`] on filesystem failure;
    /// [`WalError::Undecodable`] — the file untouched — when a record
    /// passes its checksum but does not decode (module docs).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, Vec<WalRecord>), WalError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let Decoded {
            records,
            consumed,
            end,
        } = decode(&buf);
        if end == LogEnd::Undecodable {
            return Err(WalError::Undecodable {
                offset: consumed as u64,
            });
        }
        if consumed < buf.len() {
            file.set_len(consumed as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(consumed as u64))?;
        let stats = WalStats {
            records: records.len() as u64,
            bytes: consumed as u64,
            next_seq: records.last().map_or(1, |r| r.seq + 1),
        };
        let wal = Self {
            file,
            path,
            stats,
            synced: stats,
            broken: false,
        };
        Ok((wal, records))
    }

    /// Raises the next sequence number to at least `seq`. Called after
    /// recovery so a log a checkpoint left empty continues the
    /// snapshot's numbering instead of restarting from 1.
    pub fn ensure_next_seq(&mut self, seq: u64) {
        self.stats.next_seq = self.stats.next_seq.max(seq);
        self.synced.next_seq = self.synced.next_seq.max(seq);
    }

    /// Appends one mutation record (kernel-buffered; durable only after
    /// [`Wal::sync`]) and returns its sequence number.
    ///
    /// # Errors
    /// [`WalError`] on encode or write failure — every record appended
    /// since the last sync is then gone from the file (type docs) — or
    /// when an earlier rollback failed.
    pub fn append(&mut self, mutation: &Mutation) -> Result<u64, WalError> {
        if self.broken {
            return Err(WalError::Io(std::io::Error::other(
                "a failed write could not be rolled back; reopen the log",
            )));
        }
        let seq = self.stats.next_seq;
        let written = encode_record(seq, mutation).and_then(|bytes| {
            self.file.write_all(&bytes)?;
            Ok(bytes.len() as u64)
        });
        match written {
            Ok(len) => {
                self.stats.next_seq = seq + 1;
                self.stats.records += 1;
                self.stats.bytes += len;
                Ok(seq)
            }
            Err(e) => Err(self.roll_back(e)),
        }
    }

    /// Fsyncs everything appended so far — the durability commit point.
    ///
    /// # Errors
    /// [`WalError::Io`] on fsync failure; every record appended since the
    /// last sync is then gone from the file (type docs).
    pub fn sync(&mut self) -> Result<(), WalError> {
        match self.file.sync_all() {
            Ok(()) => {
                self.synced = self.stats;
                Ok(())
            }
            Err(e) => Err(self.roll_back(e.into())),
        }
    }

    /// Cuts the file and the counters back to the last sync after
    /// `cause`, and returns `cause`. A cut that fails leaves the log
    /// refusing appends.
    fn roll_back(&mut self, cause: WalError) -> WalError {
        let bytes = self.synced.bytes;
        let cut = self
            .file
            .set_len(bytes)
            .and_then(|()| self.file.seek(SeekFrom::Start(bytes)));
        match cut {
            Ok(_) => self.stats = self.synced,
            Err(_) => self.broken = true,
        }
        cause
    }

    /// Switches to a fresh, empty log: renames this file to `retired`,
    /// creates a new file under the old name and fsyncs the directory.
    /// The records so far — all of them, in order — are now `retired`'s;
    /// sequence numbering continues, so recovery reads `retired` first
    /// and tells the two files' records apart by number alone. `retired`
    /// must be an unused name in the log's own directory: the rename
    /// would replace whatever held it.
    ///
    /// # Errors
    /// [`WalError::Io`]. If the fresh file cannot be created the rename
    /// is undone and the log appends where it did; if only the directory
    /// fsync fails the switch has happened (`retired` exists) but may
    /// not survive a crash.
    pub fn rotate(&mut self, retired: &Path) -> Result<(), WalError> {
        std::fs::rename(&self.path, retired)?;
        let fresh = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&self.path);
        self.file = match fresh {
            Ok(file) => file,
            Err(e) => {
                // Appends must not go on landing in a file recovery
                // knows as the retired one.
                std::fs::rename(retired, &self.path)?;
                return Err(e.into());
            }
        };
        self.stats.records = 0;
        self.stats.bytes = 0;
        self.synced = self.stats;
        // A record fsynced into the fresh file is only as durable as the
        // file's name.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Current log statistics.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Fault-injection seam: aborts the process when the environment arms
/// this point (`SEMASK_CRASH_POINT=<name>`, optionally
/// `SEMASK_CRASH_AFTER=<k>` to abort on the k-th hit instead of the
/// first). A no-op in normal operation — reading an unset env var and
/// one relaxed atomic load. `abort` (not `exit`) so no destructor,
/// buffer flush, or unwind runs: the process dies as hard as a power
/// cut, short of the kernel's page cache.
pub fn crash_point(name: &str) {
    static HITS: AtomicU32 = AtomicU32::new(0);
    match std::env::var(CRASH_POINT_ENV) {
        Ok(armed) if armed == name => {
            let after: u32 = std::env::var(CRASH_AFTER_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            let hit = HITS.fetch_add(1, Ordering::Relaxed) + 1;
            if hit >= after {
                std::process::abort();
            }
        }
        _ => {}
    }
}

/// Environment variable naming the armed crash point.
pub const CRASH_POINT_ENV: &str = "SEMASK_CRASH_POINT";
/// Environment variable selecting which hit of the armed point aborts.
pub const CRASH_AFTER_ENV: &str = "SEMASK_CRASH_AFTER";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mutations() -> Vec<Mutation> {
        vec![
            Mutation::Insert(PoiSpec {
                name: "Crash Proof Cafe".to_owned(),
                lat: 34.42,
                lon: -119.7,
                categories: vec!["Coffee & Tea".to_owned()],
                tips: vec!["the espresso survives anything".to_owned()],
            }),
            Mutation::Update {
                id: 7,
                update: PoiUpdate {
                    name: None,
                    tips: Some(vec!["now with new tips".to_owned()]),
                },
            },
            Mutation::Delete { id: 3 },
        ]
    }

    #[test]
    fn records_round_trip() {
        let muts = sample_mutations();
        let mut buf = Vec::new();
        for (i, m) in muts.iter().enumerate() {
            buf.extend_from_slice(&encode_record(i as u64 + 1, m).unwrap());
        }
        let (records, consumed) = decode_buffer(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(records.len(), muts.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.mutation, muts[i]);
        }
    }

    #[test]
    fn torn_tail_drops_only_the_tail() {
        let muts = sample_mutations();
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for (i, m) in muts.iter().enumerate() {
            buf.extend_from_slice(&encode_record(i as u64 + 1, m).unwrap());
            boundaries.push(buf.len());
        }
        // Cut mid-record: everything before the cut's record survives.
        let cut = boundaries[1] + 3;
        let (records, consumed) = decode_buffer(&buf[..cut]);
        assert_eq!(records.len(), 2);
        assert_eq!(consumed, boundaries[1]);
    }

    #[test]
    fn bit_flip_stops_cleanly() {
        let muts = sample_mutations();
        let mut buf = Vec::new();
        for (i, m) in muts.iter().enumerate() {
            buf.extend_from_slice(&encode_record(i as u64 + 1, m).unwrap());
        }
        let reference = decode_buffer(&buf).0;
        for pos in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x40;
            let (records, _) = decode_buffer(&corrupt);
            // Never a panic; the decoded records are a prefix of the
            // originals (the flipped record and everything after drop).
            assert!(records.len() <= reference.len());
            for (r, orig) in records.iter().zip(&reference) {
                assert_eq!(r, orig, "flip at {pos} must not alter surviving records");
            }
        }
    }

    #[test]
    fn open_truncates_torn_tail_and_continues_seq() {
        let dir = std::env::temp_dir().join(format!("semask_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let muts = sample_mutations();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for m in &muts {
                wal.append(m).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.stats().records, 3);
        }
        // Tear the tail: append garbage half a record long.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 3, "valid prefix replays");
        assert_eq!(wal.stats().next_seq, 4, "numbering continues");
        // The file was truncated at the tear; a new append round-trips.
        let seq = wal.append(&muts[0]).unwrap();
        assert_eq!(seq, 4);
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[3].seq, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `payload` framed as a record: its length and its checksum.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn a_record_that_checks_but_does_not_decode_is_refused_not_cut() {
        let dir = std::env::temp_dir().join(format!("semask_wal_foreign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let muts = sample_mutations();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&muts[0]).unwrap();
            wal.append(&muts[1]).unwrap();
            wal.sync().unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        for foreign in [&b"{\"not\": \"a record\"}"[..], &[0xFF, 0xFE][..]] {
            let mut file = good.clone();
            file.extend_from_slice(&framed(foreign));
            file.extend_from_slice(&encode_record(3, &muts[2]).unwrap());
            std::fs::write(&path, &file).unwrap();

            let decoded = decode(&file);
            assert_eq!(decoded.end, LogEnd::Undecodable);
            assert_eq!((decoded.records.len(), decoded.consumed), (2, good.len()));
            let refused = Wal::open(&path).err();
            assert!(
                matches!(refused, Some(WalError::Undecodable { offset }) if offset == good.len() as u64),
                "{refused:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), file, "the file is untouched");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zero_filled_tail_is_torn_and_cut() {
        let muts = sample_mutations();
        let mut buf = encode_record(1, &muts[0]).unwrap();
        let end = buf.len();
        assert_eq!(decode(&buf).end, LogEnd::Whole);
        // An empty record checks (the CRC-32 of nothing is 0), but the
        // encoder never writes one: it is a crash's zero-filled tail.
        for zeros in [3, 8, 4096] {
            let mut tail = buf.clone();
            tail.resize(end + zeros, 0);
            let decoded = decode(&tail);
            assert_eq!((decoded.end, decoded.consumed), (LogEnd::Torn, end));
        }
        buf.truncate(end - 1);
        assert_eq!(decode(&buf).end, LogEnd::Torn);
    }

    #[test]
    fn rotate_preserves_numbering() {
        let dir = std::env::temp_dir().join(format!("semask_wal_rotate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let retired = dir.join("wal.prev");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&retired);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&Mutation::Delete { id: 1 }).unwrap();
        wal.append(&Mutation::Delete { id: 2 }).unwrap();
        wal.sync().unwrap();
        let before = std::fs::read(&path).unwrap();
        wal.rotate(&retired).unwrap();
        assert_eq!(
            wal.stats(),
            WalStats {
                records: 0,
                bytes: 0,
                next_seq: 3
            }
        );
        // The rotated file is exactly the old log, byte for byte.
        assert_eq!(std::fs::read(&retired).unwrap(), before);
        let (old, consumed) = decode_buffer(&before);
        assert_eq!(consumed, before.len());
        assert_eq!(old.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(old[1].mutation, Mutation::Delete { id: 2 });

        let seq = wal.append(&Mutation::Delete { id: 3 }).unwrap();
        assert_eq!(seq, 3);
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(
            std::fs::read(&retired).unwrap(),
            before,
            "appends go to the fresh log"
        );
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].seq, 3);
        // Recovery can push numbering past a snapshot's fold point.
        wal.ensure_next_seq(10);
        assert_eq!(wal.stats().next_seq, 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
