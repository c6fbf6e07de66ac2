//! The framed TCP server: thread-per-connection readers that admit
//! through a fair gate themselves, with per-connection in-flight caps
//! and writers that send whatever is already answered in one go.
//!
//! Threading model, per connection — two threads, and none per server
//! besides the acceptor:
//!
//! ```text
//! reader ──push──▶ FairGate (WRR) ──serve──▶ handler.handle()
//!    ▲              turns run on whichever          │ Ready/Pending/Deferred
//!    │              reader holds the baton          │ (ServeEngine: submit_request
//!    │                                              ▼  → Pending(PendingResponse))
//!    │ in-flight slots freed          FIFO channel of completions
//!    └──────────────── writer ◀───────────────────┘
//! ```
//!
//! - The **reader** takes every frame its socket already holds in one
//!   `read` ([`proto::FrameReader`]) and blocks when the connection
//!   already has `max_inflight_per_conn` unanswered requests — unread
//!   bytes pile up in the socket and TCP backpressure reaches the
//!   client. A read timeout bounds how long a slow-loris client
//!   (drip-feeding header bytes) can hold the thread: the connection is
//!   dropped, the server keeps serving everyone else.
//! - **Admission** has no thread of its own. A reader queues each
//!   request on the `FairGate` and then serves the gate: if no one
//!   else is, it runs weighted-round-robin turns — its own and any
//!   other connection's — until the gate is empty, so a hot connection
//!   cannot starve admission for the rest (the PR 4 follow-up) and a
//!   lone connection is admitted with no thread hand-off. The gate lets
//!   one thread at a time do this, so [`NetHandler::handle`] is never
//!   concurrent with itself; it must not block, and slow work returns
//!   [`Reply::Pending`] or [`Reply::Deferred`]. A reader never holds
//!   the baton while it waits for an in-flight slot or its socket.
//! - The **writer** resolves completions in FIFO order and owns the
//!   socket's write half, so responses for one connection never
//!   interleave and pipelined clients can match replies in order or by
//!   correlation id. It encodes every completion that is already
//!   answered into one buffer and sends them with one `write`, and it
//!   sends what it has before it blocks on one that is not — a ready
//!   reply never waits for an unready one. Deferred closures and shard
//!   slices are opaque blocking work: the buffer is sent before each
//!   runs.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use semask_serve::api::{PendingResponse, Request, Response, ServeStatus};
use semask_serve::ServeEngine;

use crate::fair::FairGate;
use crate::proto::{self, FrameKind, FrameReader, ShardQuery, ShardReply};

/// Tuning knobs for [`ServeServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum unanswered requests per connection before the reader
    /// stops parsing (and TCP backpressure reaches the client).
    pub max_inflight_per_conn: usize,
    /// Socket read timeout: an idle or slow-loris connection is dropped
    /// after this long without completing a frame.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight_per_conn: 32,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// What [`NetHandler::handle`] hands back to the admitting thread.
pub enum Reply {
    /// The response is already known (refusals, validation errors).
    Ready(Response),
    /// A serve-layer claim. The connection's writer probes it
    /// ([`PendingResponse::try_wait`]) and waits on it only after
    /// sending every reply that is already answered.
    Pending(PendingResponse),
    /// The response needs opaque blocking work; the closure runs on the
    /// connection's writer thread (per-connection FIFO), keeping
    /// admission unblocked.
    Deferred(Box<dyn FnOnce() -> Response + Send>),
}

/// The application behind a [`ServeServer`]. `handle` is called by one
/// thread at a time (whichever reader is serving the fair gate) and
/// **must not block** — do admission there and defer waiting.
/// `handle_shard` serves the shard fabric; the default refuses, which
/// is correct for front-end servers.
pub trait NetHandler: Send + Sync {
    /// Admits one client request. Never entered twice at once.
    fn handle(&self, request: Request) -> Reply;

    /// Answers one shard-slice query. Runs on the connection's writer
    /// thread (slice execution may block).
    fn handle_shard(&self, query: ShardQuery) -> ShardReply {
        let _ = query;
        ShardReply {
            status: ServeStatus::EngineError {
                message: "shard queries not supported by this server".into(),
            },
            hits: Vec::new(),
        }
    }
}

/// [`ServeEngine`] speaks the protocol directly: admission via
/// `submit_request` is non-blocking (batching happens behind it), and
/// the claim travels to the writer thread as it is.
impl NetHandler for ServeEngine {
    fn handle(&self, request: Request) -> Reply {
        Reply::Pending(self.submit_request(request))
    }
}

/// One admitted request on its way to the connection's writer.
enum Completion {
    Submit { corr: u64, reply: Reply },
    Shard { corr: u64, query: ShardQuery },
}

/// Cumulative I/O counts of a [`ServeServer`], over every connection it
/// has served. Rates over an interval are the caller's subtraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// `read` calls the connection readers made.
    pub read_calls: u64,
    /// Request frames those reads delivered.
    pub frames_in: u64,
    /// `write` calls the connection writers made.
    pub write_calls: u64,
    /// Reply frames those writes carried.
    pub frames_out: u64,
}

/// Statistics only: nothing is published through these.
#[derive(Default)]
struct IoCounters {
    read_calls: AtomicU64,
    frames_in: AtomicU64,
    write_calls: AtomicU64,
    frames_out: AtomicU64,
}

/// The read half of a connection, counting its `read` calls.
struct CountedReads<'a> {
    stream: TcpStream,
    calls: &'a AtomicU64,
}

impl io::Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.stream.read(buf)
    }
}

/// Per-connection in-flight accounting shared by reader and writer.
struct Inflight {
    count: Mutex<usize>,
    freed: Condvar,
    /// Set when the writer half dies so a reader blocked on a slot
    /// stops waiting for releases that will never come.
    dead: AtomicBool,
}

impl Inflight {
    fn new() -> Self {
        Self {
            count: Mutex::new(0),
            freed: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Blocks until a slot frees up; `false` when the connection or
    /// server died while waiting.
    fn acquire(&self, cap: usize, shutdown: &AtomicBool) -> bool {
        let mut count = self.count.lock().expect("inflight lock");
        loop {
            if self.dead.load(Ordering::Acquire) || shutdown.load(Ordering::Acquire) {
                return false;
            }
            if *count < cap {
                *count += 1;
                return true;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(count, Duration::from_millis(100))
                .expect("inflight lock");
            count = guard;
        }
    }

    fn release(&self, slots: usize) {
        let mut count = self.count.lock().expect("inflight lock");
        *count = count.saturating_sub(slots);
        drop(count);
        self.freed.notify_one();
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        self.freed.notify_all();
    }
}

enum Work {
    Submit { corr: u64, request: Request },
    Shard { corr: u64, query: ShardQuery },
}

struct ConnHandle {
    tx: Sender<Completion>,
    stream: TcpStream,
}

struct ServerShared {
    handler: Arc<dyn NetHandler>,
    config: ServerConfig,
    gate: FairGate<Work>,
    shutdown: AtomicBool,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    io: IoCounters,
}

/// A running TCP server. Bind with [`ServeServer::bind`], stop with
/// [`ServeServer::shutdown`] (also runs on drop).
pub struct ServeServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn NetHandler>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            handler,
            config,
            gate: FairGate::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            io: IoCounters::default(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (read the ephemeral port from here).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Cumulative I/O counts since [`ServeServer::bind`].
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        let io = &self.shared.io;
        IoStats {
            read_calls: io.read_calls.load(Ordering::Relaxed),
            frames_in: io.frames_in.load(Ordering::Relaxed),
            write_calls: io.write_calls.load(Ordering::Relaxed),
            frames_out: io.frames_out.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains queued work, kills live connections, and
    /// joins every server thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close the gate: returns once the readers have admitted every
        // queued turn, before any socket is killed, so queued requests
        // still reach the handler and their writers.
        self.shared.gate.close();
        // The acceptor blocks in `accept`; one connection wakes it to
        // see the flag.
        let woken = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1)).is_ok();
        if let Some(handle) = self.accept.take() {
            // A listener that cannot be reached is left to end with the
            // process rather than joined forever.
            if woken || handle.is_finished() {
                let _ = handle.join();
            }
        }
        // Kill live connections: shutdown unblocks readers mid-read,
        // dropping the senders ends each writer's channel.
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn registry"));
        for (_, conn) in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            drop(conn.tx);
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().expect("worker registry"));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut next_conn: u64 = 1;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn_id = next_conn;
                next_conn += 1;
                if let Err(e) = spawn_connection(conn_id, stream, shared) {
                    // Socket setup failed (e.g. peer already gone);
                    // nothing to clean up, keep accepting.
                    let _ = e;
                }
            }
            // Out of descriptors, or the peer reset before we got to
            // it: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn spawn_connection(conn_id: u64, stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    let registry_stream = stream.try_clone()?;
    let (tx, rx) = channel::<Completion>();
    let inflight = Arc::new(Inflight::new());
    shared.conns.lock().expect("conn registry").insert(
        conn_id,
        ConnHandle {
            tx,
            stream: registry_stream,
        },
    );

    let writer = {
        let shared = Arc::clone(shared);
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name(format!("net-write-{conn_id}"))
            .spawn(move || writer_loop(&rx, write_half, &shared, &inflight))
            .expect("spawn writer thread")
    };
    let reader = {
        let shared = Arc::clone(shared);
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name(format!("net-read-{conn_id}"))
            .spawn(move || reader_loop(conn_id, stream, &shared, &inflight))
            .expect("spawn reader thread")
    };
    let mut workers = shared.workers.lock().expect("worker registry");
    workers.push(writer);
    workers.push(reader);
    Ok(())
}

fn reader_loop(
    conn_id: u64,
    stream: TcpStream,
    shared: &Arc<ServerShared>,
    inflight: &Arc<Inflight>,
) {
    let mut frames = FrameReader::new(CountedReads {
        stream,
        calls: &shared.io.read_calls,
    });
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let frame = match frames.next_frame() {
            Ok(frame) => frame,
            // Timeouts (idle or slow-loris), EOF, and protocol
            // violations all end the connection; the server itself
            // keeps serving other clients.
            Err(_) => break,
        };
        shared.io.frames_in.fetch_add(1, Ordering::Relaxed);
        let work = match frame.kind {
            FrameKind::Submit => match proto::decode_request(&frame.payload) {
                Ok(request) => {
                    let quantum = request.priority.quantum();
                    (
                        Work::Submit {
                            corr: frame.corr,
                            request,
                        },
                        quantum,
                    )
                }
                Err(_) => break,
            },
            FrameKind::ShardQuery => match proto::decode_shard_query(&frame.payload) {
                // Shard slices are latency-critical fan-out legs: give
                // them the high-priority quantum.
                Ok(query) => (
                    Work::Shard {
                        corr: frame.corr,
                        query,
                    },
                    semask_serve::api::Priority::High.quantum(),
                ),
                Err(_) => break,
            },
            // Reply kinds from a client are a protocol violation.
            FrameKind::SubmitReply | FrameKind::ShardReply => break,
        };
        // The slot is waited for here, with the baton down: the turns
        // that free it are served by this thread below or by another
        // reader, never by a thread parked on a slot.
        if !inflight.acquire(shared.config.max_inflight_per_conn, &shared.shutdown) {
            break;
        }
        if !shared.gate.push(conn_id, work.0, work.1) {
            inflight.release(1);
            break;
        }
        shared
            .gate
            .serve(|conn, turn| admit_turn(shared, conn, turn));
    }
    // This connection is done: drop its unserved queue and its registry
    // entry (dropping the sender ends the writer once it drains).
    shared.gate.close_conn(conn_id);
    if let Some(conn) = shared.conns.lock().expect("conn registry").remove(&conn_id) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        drop(conn.tx);
    }
}

/// One fair-gate turn: admits `conn`'s items in order and queues their
/// completions on its writer. Runs on whichever reader holds the baton.
fn admit_turn(shared: &ServerShared, conn_id: u64, turn: Vec<Work>) {
    let tx = shared
        .conns
        .lock()
        .expect("conn registry")
        .get(&conn_id)
        .map(|c| c.tx.clone());
    for work in turn {
        let completion = match work {
            Work::Submit { corr, request } => Completion::Submit {
                corr,
                reply: shared.handler.handle(request),
            },
            Work::Shard { corr, query } => Completion::Shard { corr, query },
        };
        // The writer died (client gone): dropping the completion drops
        // the pending claim, which abandons that query safely (the
        // serve layer tolerates dropped claims).
        if let Some(tx) = &tx {
            let _ = tx.send(completion);
        }
    }
}

/// The write half of a connection and the replies encoded for it but
/// not yet sent.
struct Outbox<'a> {
    stream: TcpStream,
    buf: Vec<u8>,
    frames: usize,
    shared: &'a ServerShared,
    inflight: &'a Inflight,
}

impl Outbox<'_> {
    /// Encodes one reply behind those already waiting to be sent.
    fn queue(&mut self, kind: FrameKind, corr: u64, payload: &[u8]) -> io::Result<()> {
        self.frames += 1;
        // An over-long reply cannot be framed; the client would wait
        // for it forever, so the connection ends instead.
        proto::encode_frame_into(&mut self.buf, kind, corr, payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends everything queued in one `write` and frees its slots. The
    /// writer calls this before anything that may block.
    fn send(&mut self) -> io::Result<()> {
        if self.frames == 0 {
            return Ok(());
        }
        let frames = std::mem::take(&mut self.frames);
        let io = &self.shared.io;
        io.write_calls.fetch_add(1, Ordering::Relaxed);
        io.frames_out.fetch_add(frames as u64, Ordering::Relaxed);
        let sent = io::Write::write_all(&mut self.stream, &self.buf);
        self.buf.clear();
        self.inflight.release(frames);
        sent
    }
}

/// Resolves completions in order until a write fails or every sender
/// is gone, sending whatever is queued before each wait.
fn write_completions(
    rx: &Receiver<Completion>,
    out: &mut Outbox<'_>,
    handler: &dyn NetHandler,
) -> io::Result<()> {
    loop {
        let completion = match rx.try_recv() {
            Ok(completion) => completion,
            Err(TryRecvError::Empty) => {
                out.send()?;
                match rx.recv() {
                    Ok(completion) => completion,
                    Err(_) => return Ok(()),
                }
            }
            Err(TryRecvError::Disconnected) => return out.send(),
        };
        match completion {
            Completion::Submit { corr, reply } => {
                let response = match reply {
                    Reply::Ready(response) => response,
                    Reply::Pending(pending) => match pending.try_wait() {
                        Ok(response) => response,
                        Err(pending) => {
                            out.send()?;
                            pending.wait()
                        }
                    },
                    Reply::Deferred(wait) => {
                        out.send()?;
                        wait()
                    }
                };
                let payload = proto::encode_response(&response);
                out.queue(FrameKind::SubmitReply, corr, &payload)?;
            }
            Completion::Shard { corr, query } => {
                out.send()?;
                let payload = proto::encode_shard_reply(&handler.handle_shard(query));
                out.queue(FrameKind::ShardReply, corr, &payload)?;
            }
        }
    }
}

fn writer_loop(
    rx: &Receiver<Completion>,
    stream: TcpStream,
    shared: &ServerShared,
    inflight: &Inflight,
) {
    let mut out = Outbox {
        stream,
        buf: Vec::new(),
        frames: 0,
        shared,
        inflight,
    };
    let _ = write_completions(rx, &mut out, shared.handler.as_ref());
    // Unblock a reader waiting on an in-flight slot, then discard
    // whatever is still queued (the connection is gone).
    inflight.mark_dead();
    let unsent = out.frames + rx.try_iter().count();
    inflight.release(unsent);
}
