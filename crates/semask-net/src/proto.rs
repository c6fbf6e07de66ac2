//! Length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌────────┬─────────┬──────┬──────────────────┬─────────────┬─────────┐
//! │ magic  │ version │ kind │ correlation id   │ payload len │ payload │
//! │ u16 LE │ u8      │ u8   │ u64 LE           │ u32 LE      │ bytes   │
//! └────────┴─────────┴──────┴──────────────────┴─────────────┴─────────┘
//!   0x534B    4                                  ≤ 16 MiB
//! ```
//!
//! The 16-byte header is fixed; the payload encoding depends on
//! [`FrameKind`] and goes through `vecdb::codec`, the byte layer of
//! snapshots and log records. All integers are little-endian, floats
//! travel as raw IEEE-754 bits (`to_bits`/`from_bits`, so answers survive
//! the wire bit-exactly), strings are UTF-8 with a `u32` length prefix,
//! `Option<T>` is a `u8` tag (0 = none, 1 = some) followed by `T`, and a
//! list is a `u32` count, checked against the bytes behind it before
//! anything is allocated, followed by its items. An encoder panics on a
//! string of 4 GiB or more, which no frame could carry.
//!
//! The correlation id in the header echoes the request id: responses may
//! arrive pipelined and the client matches them back by id. Malformed
//! frames are protocol violations — the peer drops the connection rather
//! than guessing at resynchronization.

use std::fmt;
use std::io::{Read, Write};

use geotext::BoundingBox;
use semask::{
    LatencyBreakdown, QueryOutcome, RankedPoi, Reason, RetrievalStrategy, SemaSkQuery, StrategyCost,
};
use semask_serve::api::{CacheStatus, Priority, Request, Response, ServeStatus};
use vecdb::codec::{Reader, Writer};
use vecdb::{ScoredPoint, ShardSpec, VecDbError};

/// Frame magic: `"SK"` little-endian.
pub const MAGIC: u16 = 0x4B53;
/// Protocol version carried in every header. Version 2 dropped the
/// per-shard predicted costs from a response's latency block, version 3
/// its cost-model generation (plans are priced with constant
/// coefficients), and version 4 sends a ranked POI's reason as a tag
/// byte, with text only for the model's own reason; an older peer is
/// refused by this byte rather than misparsed.
pub const VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a single frame's payload; anything larger is rejected
/// before allocation (a garbage length prefix must not OOM the server).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// What the payload of a frame contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a [`Request`] envelope.
    Submit = 1,
    /// Server → client: the [`Response`] envelope for a [`FrameKind::Submit`].
    SubmitReply = 2,
    /// Router → shard server: one shard's slice of a planned query.
    ShardQuery = 3,
    /// Shard server → router: the slice result.
    ShardReply = 4,
}

impl FrameKind {
    /// Decodes the header byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Submit),
            2 => Some(Self::SubmitReply),
            3 => Some(Self::ShardQuery),
            4 => Some(Self::ShardReply),
            _ => None,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes read timeouts: an
    /// `ErrorKind::WouldBlock`/`TimedOut` here means the peer went
    /// quiet, not that the stream is corrupt).
    Io(std::io::Error),
    /// The first two header bytes were not [`MAGIC`].
    BadMagic(u16),
    /// The peer speaks a protocol version we do not.
    BadVersion(u8),
    /// Unknown [`FrameKind`] byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The payload bytes did not decode as the kind's envelope: a code
    /// or value no envelope holds.
    Malformed(&'static str),
    /// The payload bytes broke a rule of the byte layer: cut short, a
    /// count the bytes do not back, a flag neither 0 nor 1, a string that
    /// is not UTF-8, or bytes left over.
    Codec(VecDbError),
}

impl ProtoError {
    /// True when the error is a read timeout rather than a dead or
    /// corrupt stream — callers with retry budgets treat these
    /// differently from protocol violations.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
            Self::Oversize(n) => write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD} cap"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Codec(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<VecDbError> for ProtoError {
    fn from(e: VecDbError) -> Self {
        Self::Codec(e)
    }
}

/// One decoded frame: kind, correlation id, and the raw payload bytes.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Payload discriminator.
    pub kind: FrameKind,
    /// Echoed request id (pipelined responses are matched by this).
    pub corr: u64,
    /// Envelope bytes; decode with the kind-matching `decode_*`.
    pub payload: Vec<u8>,
}

/// Appends one frame (header + payload) to `buf` without writing it
/// anywhere. The building block behind [`write_frame`] and burst
/// senders that pack several frames into one `write_all` (e.g.
/// [`crate::client::NetClient::send_requests`]) so a whole pipeline
/// burst leaves in a single syscall instead of one per request.
///
/// # Errors
/// [`ProtoError::Oversize`] when the payload exceeds the frame limit;
/// `buf` is untouched in that case.
pub fn encode_frame_into(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    corr: u64,
    payload: &[u8],
) -> Result<(), ProtoError> {
    if payload.len() as u64 > u64::from(MAX_PAYLOAD) {
        return Err(ProtoError::Oversize(u32::MAX));
    }
    buf.reserve(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(kind as u8);
    buf.extend_from_slice(&corr.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame (header + payload) as a single buffered write so a
/// concurrent writer on a cloned socket can never interleave mid-frame.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    corr: u64,
    payload: &[u8],
) -> Result<(), ProtoError> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, kind, corr, payload)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Validates a frame header: kind, correlation id and declared payload
/// length. The one header parser behind [`read_frame`] and
/// [`FrameReader`].
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, u64, usize), ProtoError> {
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(ProtoError::BadVersion(header[2]));
    }
    let kind = FrameKind::from_code(header[3]).ok_or(ProtoError::BadKind(header[3]))?;
    let corr = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversize(len));
    }
    Ok((kind, corr, len as usize))
}

/// Reads and validates one frame. Blocks per the stream's read timeout;
/// a timeout surfaces as [`ProtoError::Io`] with `is_timeout() == true`.
///
/// The one-shot form: two `read_exact`s and no state, so nothing past
/// the frame is consumed. A connection that is read again and again
/// wants a [`FrameReader`], which takes everything the socket already
/// holds in one `read`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, corr, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        kind,
        corr,
        payload,
    })
}

/// The room a [`FrameReader`] offers each `read`, unless the frame in
/// progress is larger — then exactly that frame's. So it is also the
/// most the reader ever holds of frames it has not been asked for.
const READ_AHEAD: usize = 64 * 1024;

/// A buffered frame source over any [`Read`]: one `read` brings in every
/// frame the stream already holds, and [`FrameReader::next_frame`] hands
/// them out one at a time with [`read_frame`]'s validation and errors.
///
/// The buffer is 64 KiB, or the frame in progress if that is larger: a
/// header is validated (so its declared length is under
/// [`MAX_PAYLOAD`]) before the buffer grows for its payload, and what a
/// large frame grew is given back once the frame is consumed.
///
/// An I/O error — a read timeout included — leaves the bytes read so
/// far in place, so a caller with a retry budget can call again and
/// resume mid-frame; after any other error the stream is out of sync
/// and the connection should be dropped.
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` holds the bytes read and not yet handed out;
    /// `buf.len()` is the room the next `read` may fill.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; nothing is read until the first frame is asked for.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// The wrapped stream (to set socket options on).
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The wrapped stream, mutably (to write on a duplex stream). Reading
    /// from it directly would skip whatever is buffered here.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Bytes the buffer has allocated (the memory bound above is on this).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The next frame: from the buffer when a whole one is already
    /// there, otherwise after as many `read`s as it takes to complete it.
    ///
    /// # Errors
    /// Exactly [`read_frame`]'s: the header checks, and
    /// [`ProtoError::Io`] for timeouts and for a stream that ends
    /// mid-frame (`UnexpectedEof`).
    pub fn next_frame(&mut self) -> Result<Frame, ProtoError> {
        self.fill(HEADER_LEN)?;
        let header = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("HEADER_LEN bytes");
        let (kind, corr, len) = parse_header(header)?;
        self.fill(HEADER_LEN + len)?;
        let body = self.start + HEADER_LEN;
        let payload = self.buf[body..body + len].to_vec();
        self.start = body + len;
        if self.buf.len() > READ_AHEAD {
            // A large frame grew the buffer; what was read past it fits
            // the usual room.
            self.compact();
            self.buf.truncate(READ_AHEAD);
            self.buf.shrink_to_fit();
        }
        Ok(Frame {
            kind,
            corr,
            payload,
        })
    }

    /// Reads until `need` bytes are buffered, offering the stream
    /// [`READ_AHEAD`] bytes of room, or `need` if that is more.
    fn fill(&mut self, need: usize) -> Result<(), ProtoError> {
        while self.end - self.start < need {
            self.compact();
            let room = need.max(READ_AHEAD);
            if self.buf.len() < room {
                self.buf.reserve_exact(room - self.buf.len());
                self.buf.resize(room, 0);
            }
            match self.inner.read(&mut self.buf[self.end..room]) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Moves the unread bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Primitives are `vecdb::codec`'s, the byte layer of snapshots and log
// records too: little-endian words, floats as their bits, `u32`-prefixed
// UTF-8 strings, 0/1 flag bytes. The helpers below add the option and
// string forms the envelopes share; a count is checked against the bytes
// behind it before anything is sized by it.
// ---------------------------------------------------------------------

/// A length-prefixed string.
///
/// # Panics
/// If `s` is 4 GiB or longer: no frame carries more than [`MAX_PAYLOAD`].
fn put_str(w: &mut Writer, s: &str) {
    w.str(s)
        .expect("a wire string is under 4 GiB, far past the frame cap");
}

fn take_str(r: &mut Reader<'_>) -> Result<String, ProtoError> {
    Ok(r.str()?.to_owned())
}

/// `v` behind a flag byte: 0 for none, 1 then the value.
fn put_opt<T: ?Sized>(w: &mut Writer, v: Option<&T>, put: impl FnOnce(&mut Writer, &T)) {
    w.bool(v.is_some());
    if let Some(v) = v {
        put(w, v);
    }
}

fn take_opt<'a, T>(
    r: &mut Reader<'a>,
    take: impl FnOnce(&mut Reader<'a>) -> Result<T, ProtoError>,
) -> Result<Option<T>, ProtoError> {
    if r.bool()? {
        take(r).map(Some)
    } else {
        Ok(None)
    }
}

/// A `u32` count of items that each take at least `min_bytes`, refused
/// when the bytes left cannot hold them.
fn take_count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, ProtoError> {
    let count = r.u32()? as usize;
    Ok(r.count(count, min_bytes)?)
}

/// Wire code of a retrieval strategy (stable across releases; extend,
/// never renumber).
#[must_use]
pub fn strategy_code(strategy: RetrievalStrategy) -> u8 {
    match strategy {
        RetrievalStrategy::ExactScan => 0,
        RetrievalStrategy::FilteredHnsw => 1,
        RetrievalStrategy::GridPrefilter => 2,
        RetrievalStrategy::IrTree => 3,
    }
}

/// Inverse of [`strategy_code`].
#[must_use]
pub fn strategy_from_code(code: u8) -> Option<RetrievalStrategy> {
    match code {
        0 => Some(RetrievalStrategy::ExactScan),
        1 => Some(RetrievalStrategy::FilteredHnsw),
        2 => Some(RetrievalStrategy::GridPrefilter),
        3 => Some(RetrievalStrategy::IrTree),
        _ => None,
    }
}

fn put_range(w: &mut Writer, range: &BoundingBox) {
    w.f64(range.min_lat);
    w.f64(range.min_lon);
    w.f64(range.max_lat);
    w.f64(range.max_lon);
}

fn take_range(r: &mut Reader<'_>) -> Result<BoundingBox, ProtoError> {
    Ok(BoundingBox {
        min_lat: r.f64()?,
        min_lon: r.f64()?,
        max_lat: r.f64()?,
        max_lon: r.f64()?,
    })
}

fn put_query(w: &mut Writer, q: &SemaSkQuery) {
    put_range(w, &q.range);
    put_str(w, &q.text);
    put_opt(w, q.keywords.as_deref(), put_str);
}

fn take_query(r: &mut Reader<'_>) -> Result<SemaSkQuery, ProtoError> {
    Ok(SemaSkQuery {
        range: take_range(r)?,
        text: take_str(r)?,
        keywords: take_opt(r, take_str)?,
    })
}

fn put_status(w: &mut Writer, status: &ServeStatus) {
    w.u8(status.code());
    put_str(w, status.message());
}

fn take_status(r: &mut Reader<'_>) -> Result<ServeStatus, ProtoError> {
    let code = r.u8()?;
    let message = take_str(r)?;
    ServeStatus::from_code(code, message).ok_or(ProtoError::Malformed("unknown status code"))
}

fn take_strategy(r: &mut Reader<'_>) -> Result<RetrievalStrategy, ProtoError> {
    strategy_from_code(r.u8()?).ok_or(ProtoError::Malformed("unknown strategy code"))
}

fn put_strategy_cost(w: &mut Writer, cost: &StrategyCost) {
    w.u8(strategy_code(cost.strategy));
    w.f64(cost.predicted_us);
    w.bool(cost.viable);
}

fn take_strategy_cost(r: &mut Reader<'_>) -> Result<StrategyCost, ProtoError> {
    Ok(StrategyCost {
        strategy: take_strategy(r)?,
        predicted_us: r.f64()?,
        viable: r.bool()?,
    })
}

fn put_latency(w: &mut Writer, l: &LatencyBreakdown) {
    w.f64(l.filtering_ms);
    w.f64(l.retrieval_ms);
    w.f64(l.refinement_ms);
    put_opt(w, l.filter_strategy.as_ref(), |w, &s| {
        w.u8(strategy_code(s))
    });
    w.f64(l.estimated_selectivity);
    w.f64(l.predicted_cost_us);
    put_opt(w, l.runner_up.as_ref(), put_strategy_cost);
    w.u32(l.shard_candidates.len() as u32);
    for &n in &l.shard_candidates {
        w.u64(n as u64);
    }
}

fn take_latency(r: &mut Reader<'_>) -> Result<LatencyBreakdown, ProtoError> {
    Ok(LatencyBreakdown {
        filtering_ms: r.f64()?,
        retrieval_ms: r.f64()?,
        refinement_ms: r.f64()?,
        filter_strategy: take_opt(r, take_strategy)?,
        estimated_selectivity: r.f64()?,
        predicted_cost_us: r.f64()?,
        runner_up: take_opt(r, take_strategy_cost)?,
        shard_candidates: {
            let n = take_count(r, 8)?;
            (0..n).map(|_| r.len64()).collect::<Result<_, _>>()?
        },
    })
}

/// Wire tag of each [`Reason`]: only [`Reason::Model`] is followed by
/// its text, and [`Reason::Embedding`] takes its score from the POI's
/// `embed_score` (stable across releases; extend, never renumber).
const REASON_EMBEDDING: u8 = 0;
const REASON_NOT_RELEVANT: u8 = 1;
const REASON_MODEL: u8 = 2;

/// The fewest wire bytes of one ranked POI: id, name length, score,
/// flag, reason tag.
const POI_MIN_BYTES: usize = 4 + 4 + 4 + 1 + 1;

fn put_reason(w: &mut Writer, reason: &Reason) {
    match reason {
        Reason::Embedding { .. } => w.u8(REASON_EMBEDDING),
        Reason::NotRelevant => w.u8(REASON_NOT_RELEVANT),
        Reason::Model(text) => {
            w.u8(REASON_MODEL);
            put_str(w, text);
        }
    }
}

fn take_reason(r: &mut Reader<'_>, embed_score: f32) -> Result<Reason, ProtoError> {
    match r.u8()? {
        REASON_EMBEDDING => Ok(Reason::Embedding { score: embed_score }),
        REASON_NOT_RELEVANT => Ok(Reason::NotRelevant),
        REASON_MODEL => Ok(Reason::Model(take_str(r)?)),
        _ => Err(ProtoError::Malformed("unknown reason tag")),
    }
}

fn put_outcome(w: &mut Writer, o: &QueryOutcome) {
    w.u32(o.pois.len() as u32);
    for p in &o.pois {
        w.u32(p.id.0);
        put_str(w, &p.name);
        w.f32(p.embed_score);
        w.bool(p.recommended);
        put_reason(w, &p.reason);
    }
    put_latency(w, &o.latency);
}

fn take_outcome(r: &mut Reader<'_>) -> Result<QueryOutcome, ProtoError> {
    let n = take_count(r, POI_MIN_BYTES)?;
    let mut pois = Vec::with_capacity(n);
    for _ in 0..n {
        let id = geotext::ObjectId(r.u32()?);
        let name = r.str()?.into();
        let embed_score = r.f32()?;
        pois.push(RankedPoi {
            id,
            name,
            embed_score,
            recommended: r.bool()?,
            reason: take_reason(r, embed_score)?,
        });
    }
    let latency = take_latency(r)?;
    Ok(QueryOutcome { pois, latency })
}

/// Encodes a [`Request`] envelope ([`FrameKind::Submit`] payload). A
/// deadline past `u64::MAX` µs (about 584,000 years) is sent as that.
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = Writer::plain(64 + request.query.text.len());
    w.u64(request.id);
    put_query(&mut w, &request.query);
    w.u8(request.priority.code());
    put_opt(&mut w, request.deadline.as_ref(), |w, d| {
        w.u64(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    });
    w.into_bytes()
}

/// Decodes a [`FrameKind::Submit`] payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = Reader::over(payload);
    let id = r.u64()?;
    let query = take_query(&mut r)?;
    let priority =
        Priority::from_code(r.u8()?).ok_or(ProtoError::Malformed("unknown priority code"))?;
    let deadline = take_opt(&mut r, |r| Ok(std::time::Duration::from_micros(r.u64()?)))?;
    r.finish()?;
    let mut request = Request::new(id, query).with_priority(priority);
    if let Some(d) = deadline {
        request = request.with_deadline(d);
    }
    Ok(request)
}

/// The most bytes [`encode_response`] writes for `response`, read off
/// the layout: the fixed envelope and the status message, and for an
/// outcome its fixed block, its shard counts and, per POI, the fewest
/// bytes a POI takes plus the name and a [`Reason::Model`] text. The
/// encoder sizes its buffer with it, so a reply is written without a
/// reallocation.
#[must_use]
pub fn response_size_bound(response: &Response) -> usize {
    // Id, status code and message length, outcome flag, cache code.
    const ENVELOPE: usize = 8 + 1 + 4 + 1 + 1;
    // POI count; three times; strategy flag and code; selectivity and
    // predicted cost; runner-up flag, strategy, cost and viability;
    // shard-count length.
    const OUTCOME_FIXED: usize = 4 + 3 * 8 + 2 + 2 * 8 + (1 + 1 + 8 + 1) + 4;
    let outcome = response.outcome.as_ref().map_or(0, |o| {
        let pois: usize = o
            .pois
            .iter()
            .map(|p| {
                let reason = match &p.reason {
                    Reason::Model(text) => 4 + text.len(),
                    Reason::Embedding { .. } | Reason::NotRelevant => 0,
                };
                POI_MIN_BYTES + p.name.len() + reason
            })
            .sum();
        OUTCOME_FIXED + 8 * o.latency.shard_candidates.len() + pois
    });
    ENVELOPE + response.status.message().len() + outcome
}

/// Encodes a [`Response`] envelope ([`FrameKind::SubmitReply`] payload).
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = Writer::plain(response_size_bound(response));
    w.u64(response.id);
    put_status(&mut w, &response.status);
    put_opt(&mut w, response.outcome.as_ref(), put_outcome);
    w.u8(response.cached.code());
    w.into_bytes()
}

/// Decodes a [`FrameKind::SubmitReply`] payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = Reader::over(payload);
    let id = r.u64()?;
    let status = take_status(&mut r)?;
    let outcome = take_opt(&mut r, take_outcome)?;
    let cached = CacheStatus::from_code(r.u8()?)
        .ok_or(ProtoError::Malformed("unknown cache-status code"))?;
    r.finish()?;
    Ok(Response {
        id,
        outcome,
        status,
        cached,
    })
}

/// One shard's slice of a planned query. The router plans once, then
/// ships the *chosen strategy* so every shard executes the same plan;
/// the shard embeds the text itself (the embedder is deterministic, so
/// no vectors travel on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQuery {
    /// Query text; the shard embeds it locally.
    pub text: String,
    /// Spatial constraint.
    pub range: BoundingBox,
    /// Results to return from this slice (the global `k`; the router
    /// merges slices with the k-way merge).
    pub k: u32,
    /// HNSW beam width override, when the plan pinned one.
    pub ef: Option<u32>,
    /// The strategy the router's planner chose — shards do not re-plan.
    pub strategy: RetrievalStrategy,
    /// Which slice of the id space this shard must answer for; the
    /// shard rejects mismatched topology rather than silently returning
    /// a wrong slice.
    pub spec: ShardSpec,
}

/// Encodes a [`ShardQuery`] ([`FrameKind::ShardQuery`] payload).
#[must_use]
pub fn encode_shard_query(q: &ShardQuery) -> Vec<u8> {
    let mut w = Writer::plain(64 + q.text.len());
    put_str(&mut w, &q.text);
    put_range(&mut w, &q.range);
    w.u32(q.k);
    put_opt(&mut w, q.ef.as_ref(), |w, &ef| w.u32(ef));
    w.u8(strategy_code(q.strategy));
    w.u32(q.spec.shards);
    w.u32(q.spec.shard);
    w.into_bytes()
}

/// Decodes a [`FrameKind::ShardQuery`] payload.
pub fn decode_shard_query(payload: &[u8]) -> Result<ShardQuery, ProtoError> {
    let mut r = Reader::over(payload);
    let text = take_str(&mut r)?;
    let range = take_range(&mut r)?;
    let k = r.u32()?;
    let ef = take_opt(&mut r, |r| Ok(r.u32()?))?;
    let strategy = take_strategy(&mut r)?;
    let shards = r.u32()?;
    let shard = r.u32()?;
    r.finish()?;
    let spec = ShardSpec::new(shards, shard).ok_or(ProtoError::Malformed("invalid shard spec"))?;
    Ok(ShardQuery {
        text,
        range,
        k,
        ef,
        strategy,
        spec,
    })
}

/// A shard's slice result ([`FrameKind::ShardReply`] payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReply {
    /// `Ok` on success; any other status carries the shard-side error.
    pub status: ServeStatus,
    /// Slice hits, best-first, at most `k`. Empty on error.
    pub hits: Vec<ScoredPoint>,
}

/// Encodes a [`ShardReply`].
#[must_use]
pub fn encode_shard_reply(reply: &ShardReply) -> Vec<u8> {
    let mut w = Writer::plain(16 + reply.status.message().len() + 12 * reply.hits.len());
    put_status(&mut w, &reply.status);
    w.u32(reply.hits.len() as u32);
    for hit in &reply.hits {
        w.u64(hit.id);
        w.f32(hit.score);
    }
    w.into_bytes()
}

/// Decodes a [`FrameKind::ShardReply`] payload.
pub fn decode_shard_reply(payload: &[u8]) -> Result<ShardReply, ProtoError> {
    let mut r = Reader::over(payload);
    let status = take_status(&mut r)?;
    let n = take_count(&mut r, 12)?;
    let mut hits = Vec::with_capacity(n);
    for _ in 0..n {
        hits.push(ScoredPoint {
            id: r.u64()?,
            score: r.f32()?,
        });
    }
    r.finish()?;
    Ok(ShardReply { status, hits })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::new(
            77,
            SemaSkQuery {
                range: BoundingBox {
                    min_lat: 1.25,
                    min_lon: -2.5,
                    max_lat: 3.0,
                    max_lon: 4.125,
                },
                text: "quiet coffee".into(),
                keywords: Some("wifi".into()),
            },
        )
        .with_priority(Priority::High)
        .with_deadline(std::time::Duration::from_millis(250))
    }

    #[test]
    fn frame_round_trips_through_a_byte_stream() {
        let payload = encode_request(&sample_request());
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, 77, &payload).expect("write");
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let frame = read_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(frame.kind, FrameKind::Submit);
        assert_eq!(frame.corr, 77);
        let decoded = decode_request(&frame.payload).expect("decode");
        assert_eq!(decoded.id, 77);
        assert_eq!(decoded.query.text, "quiet coffee");
        assert_eq!(decoded.priority, Priority::High);
    }

    #[test]
    fn header_validation_rejects_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, 1, b"x").expect("write");
        let mut bad_magic = buf.clone();
        bad_magic[0] = 0;
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(ProtoError::BadMagic(_))
        ));
        for old_or_unknown in [1, 2, 3, 9] {
            let mut bad_version = buf.clone();
            bad_version[2] = old_or_unknown;
            assert!(matches!(
                read_frame(&mut bad_version.as_slice()),
                Err(ProtoError::BadVersion(v)) if v == old_or_unknown
            ));
        }
        let mut bad_kind = buf.clone();
        bad_kind[3] = 200;
        assert!(matches!(
            read_frame(&mut bad_kind.as_slice()),
            Err(ProtoError::BadKind(200))
        ));
        let mut oversize = buf;
        oversize[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversize.as_slice()),
            Err(ProtoError::Oversize(_))
        ));
    }

    #[test]
    fn truncated_payloads_are_malformed_not_panics() {
        let payload = encode_request(&sample_request());
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn shard_envelopes_round_trip() {
        let q = ShardQuery {
            text: "ramen".into(),
            range: BoundingBox {
                min_lat: 0.0,
                min_lon: 0.0,
                max_lat: 1.0,
                max_lon: 1.0,
            },
            k: 10,
            ef: Some(64),
            strategy: RetrievalStrategy::GridPrefilter,
            spec: ShardSpec::new(4, 2).expect("valid spec"),
        };
        let decoded = decode_shard_query(&encode_shard_query(&q)).expect("decode");
        assert_eq!(decoded, q);

        let reply = ShardReply {
            status: ServeStatus::Ok,
            hits: vec![
                ScoredPoint { id: 9, score: 0.75 },
                ScoredPoint { id: 4, score: 0.5 },
            ],
        };
        let decoded = decode_shard_reply(&encode_shard_reply(&reply)).expect("decode");
        assert_eq!(decoded, reply);
    }
}
