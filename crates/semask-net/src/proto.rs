//! Length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌────────┬─────────┬──────┬──────────────────┬─────────────┬─────────┐
//! │ magic  │ version │ kind │ correlation id   │ payload len │ payload │
//! │ u16 LE │ u8      │ u8   │ u64 LE           │ u32 LE      │ bytes   │
//! └────────┴─────────┴──────┴──────────────────┴─────────────┴─────────┘
//!   0x534B    2                                  ≤ 16 MiB
//! ```
//!
//! The 16-byte header is fixed; the payload encoding depends on
//! [`FrameKind`]. All integers are little-endian, floats travel as raw
//! IEEE-754 bits (`to_bits`/`from_bits`, so answers survive the wire
//! bit-exactly), strings are UTF-8 with a `u32` length prefix, and
//! `Option<T>` is a `u8` tag (0 = none, 1 = some) followed by `T`.
//!
//! The correlation id in the header echoes the request id: responses may
//! arrive pipelined and the client matches them back by id. Malformed
//! frames are protocol violations — the peer drops the connection rather
//! than guessing at resynchronization.

use std::fmt;
use std::io::{Read, Write};

use geotext::BoundingBox;
use semask::{
    LatencyBreakdown, QueryOutcome, RankedPoi, RetrievalStrategy, SemaSkQuery, StrategyCost,
};
use semask_serve::api::{CacheStatus, Priority, Request, Response, ServeStatus};
use vecdb::{ScoredPoint, ShardSpec};

/// Frame magic: `"SK"` little-endian.
pub const MAGIC: u16 = 0x4B53;
/// Protocol version carried in every header. Version 2 dropped the
/// per-shard predicted costs from a response's latency block; a version
/// 1 peer is refused by this byte rather than misparsed.
pub const VERSION: u8 = 2;
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
    /// The payload bytes did not decode as the kind's envelope.
    Malformed(&'static str),
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
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
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
    pub fn get_ref(&self) -> &R {
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
// Primitive put/take helpers. `Wire` appends to a Vec; `Cursor` walks a
// slice and fails loudly (never panics) on truncated input.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Wire(Vec<u8>);

impl Wire {
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn put_opt<T: ?Sized>(&mut self, v: Option<&T>, encode: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(inner) => {
                self.put_u8(1);
                encode(self, inner);
            }
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated payload"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn take_u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn take_u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn take_f32(&mut self) -> Result<f32, ProtoError> {
        Ok(f32::from_bits(self.take_u32()?))
    }
    fn take_f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.take_u64()?))
    }
    fn take_str(&mut self) -> Result<String, ProtoError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("non-UTF-8 string"))
    }
    fn take_opt<T>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, ProtoError>,
    ) -> Result<Option<T>, ProtoError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(decode(self)?)),
            _ => Err(ProtoError::Malformed("bad option tag")),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
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

fn put_range(w: &mut Wire, range: &BoundingBox) {
    w.put_f64(range.min_lat);
    w.put_f64(range.min_lon);
    w.put_f64(range.max_lat);
    w.put_f64(range.max_lon);
}

fn take_range(c: &mut Cursor<'_>) -> Result<BoundingBox, ProtoError> {
    Ok(BoundingBox {
        min_lat: c.take_f64()?,
        min_lon: c.take_f64()?,
        max_lat: c.take_f64()?,
        max_lon: c.take_f64()?,
    })
}

fn put_query(w: &mut Wire, q: &SemaSkQuery) {
    put_range(w, &q.range);
    w.put_str(&q.text);
    w.put_opt(q.keywords.as_deref(), |w, kw| w.put_str(kw));
}

fn take_query(c: &mut Cursor<'_>) -> Result<SemaSkQuery, ProtoError> {
    Ok(SemaSkQuery {
        range: take_range(c)?,
        text: c.take_str()?,
        keywords: c.take_opt(Cursor::take_str)?,
    })
}

fn put_status(w: &mut Wire, status: &ServeStatus) {
    w.put_u8(status.code());
    w.put_str(status.message());
}

fn take_status(c: &mut Cursor<'_>) -> Result<ServeStatus, ProtoError> {
    let code = c.take_u8()?;
    let message = c.take_str()?;
    ServeStatus::from_code(code, message).ok_or(ProtoError::Malformed("unknown status code"))
}

fn put_strategy_cost(w: &mut Wire, cost: &StrategyCost) {
    w.put_u8(strategy_code(cost.strategy));
    w.put_f64(cost.predicted_us);
    w.put_u8(u8::from(cost.viable));
}

fn take_strategy_cost(c: &mut Cursor<'_>) -> Result<StrategyCost, ProtoError> {
    let strategy =
        strategy_from_code(c.take_u8()?).ok_or(ProtoError::Malformed("unknown strategy code"))?;
    let predicted_us = c.take_f64()?;
    let viable = match c.take_u8()? {
        0 => false,
        1 => true,
        _ => return Err(ProtoError::Malformed("bad bool")),
    };
    Ok(StrategyCost {
        strategy,
        predicted_us,
        viable,
    })
}

fn put_latency(w: &mut Wire, l: &LatencyBreakdown) {
    w.put_f64(l.filtering_ms);
    w.put_f64(l.retrieval_ms);
    w.put_f64(l.refinement_ms);
    w.put_opt(l.filter_strategy.as_ref(), |w, s| {
        w.put_u8(strategy_code(*s));
    });
    w.put_f64(l.estimated_selectivity);
    w.put_f64(l.predicted_cost_us);
    w.put_opt(l.runner_up.as_ref(), put_strategy_cost);
    w.put_u64(l.cost_model_version);
    w.put_u32(l.shard_candidates.len() as u32);
    for &n in &l.shard_candidates {
        w.put_u64(n as u64);
    }
}

fn take_latency(c: &mut Cursor<'_>) -> Result<LatencyBreakdown, ProtoError> {
    let filtering_ms = c.take_f64()?;
    let retrieval_ms = c.take_f64()?;
    let refinement_ms = c.take_f64()?;
    let filter_strategy = c.take_opt(|c| {
        strategy_from_code(c.take_u8()?).ok_or(ProtoError::Malformed("unknown strategy code"))
    })?;
    let estimated_selectivity = c.take_f64()?;
    let predicted_cost_us = c.take_f64()?;
    let runner_up = c.take_opt(take_strategy_cost)?;
    let cost_model_version = c.take_u64()?;
    let n = c.take_u32()? as usize;
    let mut shard_candidates = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        shard_candidates.push(c.take_u64()? as usize);
    }
    Ok(LatencyBreakdown {
        filtering_ms,
        retrieval_ms,
        refinement_ms,
        filter_strategy,
        estimated_selectivity,
        predicted_cost_us,
        runner_up,
        cost_model_version,
        shard_candidates,
    })
}

fn put_outcome(w: &mut Wire, o: &QueryOutcome) {
    w.put_u32(o.pois.len() as u32);
    for p in &o.pois {
        w.put_u32(p.id.0);
        w.put_str(&p.name);
        w.put_f32(p.embed_score);
        w.put_u8(u8::from(p.recommended));
        w.put_str(&p.reason);
    }
    put_latency(w, &o.latency);
}

fn take_outcome(c: &mut Cursor<'_>) -> Result<QueryOutcome, ProtoError> {
    let n = c.take_u32()? as usize;
    let mut pois = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let id = geotext::ObjectId(c.take_u32()?);
        let name = c.take_str()?;
        let embed_score = c.take_f32()?;
        let recommended = match c.take_u8()? {
            0 => false,
            1 => true,
            _ => return Err(ProtoError::Malformed("bad bool")),
        };
        let reason = c.take_str()?;
        pois.push(RankedPoi {
            id,
            name,
            embed_score,
            recommended,
            reason,
        });
    }
    let latency = take_latency(c)?;
    Ok(QueryOutcome { pois, latency })
}

/// Encodes a [`Request`] envelope ([`FrameKind::Submit`] payload).
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = Wire::default();
    w.put_u64(request.id);
    put_query(&mut w, &request.query);
    w.put_u8(request.priority.code());
    w.put_opt(request.deadline.as_ref(), |w, d| {
        w.put_u64(d.as_micros() as u64);
    });
    w.0
}

/// Decodes a [`FrameKind::Submit`] payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(payload);
    let id = c.take_u64()?;
    let query = take_query(&mut c)?;
    let priority =
        Priority::from_code(c.take_u8()?).ok_or(ProtoError::Malformed("unknown priority code"))?;
    let deadline = c.take_opt(|c| Ok(std::time::Duration::from_micros(c.take_u64()?)))?;
    c.finish()?;
    let mut request = Request::new(id, query).with_priority(priority);
    if let Some(d) = deadline {
        request = request.with_deadline(d);
    }
    Ok(request)
}

/// Encodes a [`Response`] envelope ([`FrameKind::SubmitReply`] payload).
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = Wire::default();
    w.put_u64(response.id);
    put_status(&mut w, &response.status);
    w.put_opt(response.outcome.as_ref(), put_outcome);
    w.put_u8(response.cached.code());
    w.0
}

/// Decodes a [`FrameKind::SubmitReply`] payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(payload);
    let id = c.take_u64()?;
    let status = take_status(&mut c)?;
    let outcome = c.take_opt(take_outcome)?;
    let cached = CacheStatus::from_code(c.take_u8()?)
        .ok_or(ProtoError::Malformed("unknown cache-status code"))?;
    c.finish()?;
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
    let mut w = Wire::default();
    w.put_str(&q.text);
    put_range(&mut w, &q.range);
    w.put_u32(q.k);
    w.put_opt(q.ef.as_ref(), |w, &ef| w.put_u32(ef));
    w.put_u8(strategy_code(q.strategy));
    w.put_u32(q.spec.shards);
    w.put_u32(q.spec.shard);
    w.0
}

/// Decodes a [`FrameKind::ShardQuery`] payload.
pub fn decode_shard_query(payload: &[u8]) -> Result<ShardQuery, ProtoError> {
    let mut c = Cursor::new(payload);
    let text = c.take_str()?;
    let range = take_range(&mut c)?;
    let k = c.take_u32()?;
    let ef = c.take_opt(Cursor::take_u32)?;
    let strategy =
        strategy_from_code(c.take_u8()?).ok_or(ProtoError::Malformed("unknown strategy code"))?;
    let shards = c.take_u32()?;
    let shard = c.take_u32()?;
    c.finish()?;
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
    let mut w = Wire::default();
    put_status(&mut w, &reply.status);
    w.put_u32(reply.hits.len() as u32);
    for hit in &reply.hits {
        w.put_u64(hit.id);
        w.put_f32(hit.score);
    }
    w.0
}

/// Decodes a [`FrameKind::ShardReply`] payload.
pub fn decode_shard_reply(payload: &[u8]) -> Result<ShardReply, ProtoError> {
    let mut c = Cursor::new(payload);
    let status = take_status(&mut c)?;
    let n = c.take_u32()? as usize;
    let mut hits = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let id = c.take_u64()?;
        let score = c.take_f32()?;
        hits.push(ScoredPoint { id, score });
    }
    c.finish()?;
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
        for old_or_unknown in [1, 9] {
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
