//! The wire path works in bursts, and these pin how — by counting
//! system calls ([`ServeServer::io_stats`]) and by holding the executor,
//! not by a clock:
//!
//! - replies answered together leave in one `write`, in order;
//! - a reply that is ready is never held behind one that is not;
//! - a burst larger than the in-flight cap is admitted cap-sized piece
//!   by piece — the reader that admits it never waits for a slot while
//!   it is the one who would have to free it;
//! - a fresh connection is served at once, not at the acceptor's next
//!   poll;
//! - a deadline too far off for the serve layer to keep is no deadline
//!   over the wire too, as in process.
//!
//! The executor is a test double behind `ServeEngine::with_parts`: it
//! answers every query with an empty outcome, one batch per permit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use semask::clock::MockClock;
use semask::engine::EngineError;
use semask::query::{LatencyBreakdown, QueryOutcome, SemaSkQuery};
use semask_net::client::{ClientConfig, NetClient};
use semask_net::proto;
use semask_net::server::{NetHandler, ServeServer, ServerConfig};
use semask_serve::api::{Request, ServeStatus};
use semask_serve::{BatchExecutor, ServeConfig, ServeEngine};

/// Executes one batch per permit; `open` stops counting.
#[derive(Default)]
struct Paced {
    permits: Mutex<u64>,
    granted: Condvar,
    executed: AtomicU64,
    /// Most queries the serve layer had accepted and this executor had
    /// not yet answered, sampled at the start of every batch.
    max_unanswered: AtomicU64,
    serve: OnceLock<Weak<ServeEngine>>,
}

impl Paced {
    fn allow(&self, batches: u64) {
        *self.permits.lock().expect("permits") += batches;
        self.granted.notify_all();
    }

    fn open(&self) {
        self.allow(u64::MAX / 2);
    }
}

impl BatchExecutor for Paced {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        if let Some(serve) = self.serve.get().and_then(Weak::upgrade) {
            let unanswered = serve.metrics().accepted - self.executed.load(Ordering::SeqCst);
            self.max_unanswered.fetch_max(unanswered, Ordering::SeqCst);
        }
        let mut permits = self.permits.lock().expect("permits");
        while *permits == 0 {
            permits = self.granted.wait(permits).expect("permits");
        }
        *permits -= 1;
        drop(permits);
        self.executed
            .fetch_add(queries.len() as u64, Ordering::SeqCst);
        Ok(queries
            .iter()
            .map(|_| QueryOutcome {
                pois: Vec::new(),
                latency: LatencyBreakdown::default(),
            })
            .collect())
    }
}

struct Rig {
    executor: Arc<Paced>,
    serve: Arc<ServeEngine>,
    server: ServeServer,
    addr: String,
}

impl Rig {
    fn start(max_batch: usize, max_inflight_per_conn: usize) -> Self {
        let executor = Arc::new(Paced::default());
        let serve = Arc::new(ServeEngine::with_parts(
            Arc::clone(&executor) as Arc<dyn BatchExecutor>,
            Arc::new(MockClock::new()),
            ServeConfig {
                max_batch,
                queue_capacity: 256,
                result_cache_entries: 0,
                negative_cache: false,
            },
        ));
        executor
            .serve
            .set(Arc::downgrade(&serve))
            .expect("set once");
        let server = ServeServer::bind(
            ("127.0.0.1", 0),
            Arc::clone(&serve) as Arc<dyn NetHandler>,
            ServerConfig {
                max_inflight_per_conn,
                read_timeout: Duration::from_secs(10),
            },
        )
        .expect("bind");
        let addr = format!("127.0.0.1:{}", server.local_addr().port());
        Self {
            executor,
            serve,
            server,
            addr,
        }
    }

    fn connect(&self) -> NetClient {
        let mut client = NetClient::connect(&self.addr, &ClientConfig::default()).expect("connect");
        client
            .set_read_timeout(Duration::from_secs(2))
            .expect("timeout");
        client
    }

    /// Polls until the serve layer has accepted `n` queries.
    fn await_accepted(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.serve.metrics().accepted < n {
            assert!(Instant::now() < deadline, "only {:?}", self.serve.metrics());
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stop(mut self) {
        self.executor.open();
        self.server.shutdown();
        self.serve.shutdown();
    }
}

/// Request `i`, over a range of its own (so no two share a batch group).
fn request(i: u64) -> Request {
    let center = geotext::GeoPoint::new(40.0, -90.0 + i as f64 * 0.01).expect("valid point");
    Request::new(
        i,
        SemaSkQuery::new(
            geotext::BoundingBox::from_center_km(center, 2.0, 2.0),
            format!("query {i}"),
        ),
    )
}

#[test]
fn replies_answered_together_leave_in_one_write() {
    let rig = Rig::start(64, 64);
    let mut client = rig.connect();
    let burst: Vec<Request> = (0..32).map(request).collect();
    client.send_requests(&burst).expect("burst");
    // The first flush (whatever reached the batcher first) is held in
    // the executor; the rest queue behind it as one more flush.
    rig.await_accepted(32);
    rig.executor.open();
    for id in 0..32 {
        let response = client.recv_response().expect("reply");
        assert_eq!(response.id, id, "per-connection FIFO order broke");
        assert_eq!(response.status, ServeStatus::Ok);
    }
    let io = rig.server.io_stats();
    assert_eq!((io.frames_in, io.frames_out), (32, 32));
    assert!(
        io.write_calls <= 3,
        "two flushes answered 32 claims; {} writes carried them",
        io.write_calls
    );
    assert!(
        io.read_calls <= 4,
        "one packed burst of 32 frames took {} reads",
        io.read_calls
    );
    rig.stop();
}

#[test]
fn a_ready_reply_is_not_held_behind_an_unready_one() {
    // One query per flush, so A and B are answered separately.
    let rig = Rig::start(1, 64);
    let mut client = rig.connect();
    client.send_request(&request(0)).expect("send A");
    client.send_request(&request(1)).expect("send B");
    rig.await_accepted(2);
    rig.executor.allow(1);
    // A arrives (within the client's 2 s read timeout) while B is
    // still held in the executor.
    assert_eq!(client.recv_response().expect("A").id, 0);
    assert_eq!(rig.executor.executed.load(Ordering::SeqCst), 1);
    rig.executor.allow(1);
    assert_eq!(client.recv_response().expect("B").id, 1);
    rig.stop();
}

#[test]
fn a_burst_of_three_caps_is_admitted_cap_by_cap() {
    const CAP: u64 = 4;
    let rig = Rig::start(64, CAP as usize);
    let mut client = rig.connect();
    let burst: Vec<Request> = (0..3 * CAP).map(request).collect();
    client.send_requests(&burst).expect("burst");
    // With the executor held nothing is answered, so admission stops
    // at the cap: the reader waits for a slot with the gate served.
    rig.await_accepted(CAP);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(rig.serve.metrics().accepted, CAP);
    rig.executor.open();
    for id in 0..3 * CAP {
        let response = client.recv_response().expect("the burst completes");
        assert_eq!(response.id, id, "per-connection FIFO order broke");
        assert_eq!(response.status, ServeStatus::Ok);
    }
    assert!(
        rig.executor.max_unanswered.load(Ordering::SeqCst) <= CAP,
        "the executor saw {} unanswered queries from a connection capped at {CAP}",
        rig.executor.max_unanswered.load(Ordering::SeqCst)
    );
    assert_eq!(rig.server.io_stats().frames_out, 3 * CAP);
    rig.stop();
}

#[test]
fn a_fresh_connection_is_served_at_once() {
    let rig = Rig::start(64, 64);
    rig.executor.open();
    let mut took: Vec<Duration> = (0..20)
        .map(|i| {
            let t0 = Instant::now();
            let mut client = rig.connect();
            let response = client.request(&request(i)).expect("served");
            assert_eq!(response.status, ServeStatus::Ok);
            t0.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    // An acceptor that polls every 20 ms leaves a fresh connection
    // waiting 10 ms at the median; one blocked in `accept` does not.
    assert!(
        median < Duration::from_millis(5),
        "connect + one request took {median:?} at the median of {took:?}"
    );
    rig.stop();
}

#[test]
fn a_deadline_past_the_clock_is_no_deadline_over_the_wire_too() {
    let rig = Rig::start(64, 64);
    // 2^68 × 15,625 µs: its microseconds do not fit a `u64`, and no
    // `Instant` reaches it.
    let request = request(0).with_deadline(Duration::from_secs(1 << 62));
    let in_process = rig.serve.submit_request(request.clone());
    rig.executor.allow(1);
    let in_process = in_process.wait();
    assert_eq!(in_process.status, ServeStatus::Ok);

    let mut client = rig.connect();
    client.send_request(&request).expect("send");
    rig.await_accepted(2);
    // Held until the query is in: a deadline that arrived as "now" has
    // already answered `Timeout`.
    rig.executor.allow(1);
    let over_wire = client.recv_response().expect("reply");
    assert_eq!(over_wire.status, in_process.status);
    assert_eq!(
        proto::encode_response(&over_wire),
        proto::encode_response(&in_process),
        "the same answer, field for field"
    );
    rig.stop();
}
