//! The request/response surface of the serving layer.
//!
//! One [`Request`] / [`Response`] pair is the contract everywhere a
//! query crosses a serving boundary: the in-process path
//! ([`crate::ServeEngine::submit_request`], the serve layer's one way
//! in) and the `semask-net` wire protocol encode exactly these types,
//! so a client sees the same ids, priorities, deadlines, and status
//! space whether the server lives in its process or across a socket.
//! [`PendingResponse`] is the one claim on an answer.
//!
//! The status space is deliberately one flat enum ([`ServeStatus`]): a
//! remote client cannot tell (and should not care) whether a refusal
//! happened at admission or at execution. Admission refuses with a
//! status directly; an execution failure ([`ServeError`]) folds into
//! one through `From<&ServeError>`, and an engine error carries its
//! rendered message through the wire.

use std::fmt;
use std::time::{Duration, Instant};

use semask::query::{QueryOutcome, SemaSkQuery};
use std::sync::Arc;

use crate::ticket::TicketState;
use crate::ServeError;

/// Admission priority of a request. Higher priorities survive load
/// longer: under queue pressure [`Priority::Low`] requests are shed
/// first (they require free headroom in the admission queue), and the
/// network front end drains connections by weighted round-robin with
/// each priority's [`Priority::quantum`] as the weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort: first to shed under load (admitted only while the
    /// admission leaves at least a quarter of the queue's capacity
    /// free).
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive: largest fair-drain quantum.
    High,
}

impl Priority {
    /// Weighted-round-robin quantum: how many requests one drain turn
    /// takes from a connection at this priority.
    #[must_use]
    pub fn quantum(self) -> usize {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Decodes a wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }
}

/// One query submission: the caller's correlation id, the query, and
/// the service-level knobs (priority, deadline).
///
/// `id` is caller-chosen and echoed verbatim in the [`Response`]; the
/// serving layer never interprets it beyond correlation. `deadline` is
/// a *wait budget measured from submission*: when it elapses before the
/// answer arrives, [`PendingResponse::wait`] returns
/// [`ServeStatus::Timeout`] — the server may still complete the work,
/// the claim on it is simply abandoned.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The query to answer.
    pub query: SemaSkQuery,
    /// Admission priority (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Optional wait budget from submission time.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A normal-priority request with no deadline.
    #[must_use]
    pub fn new(id: u64, query: SemaSkQuery) -> Self {
        Self {
            id,
            query,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the admission priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the wait budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The one status space every client sees, local or remote. Wire
/// representation: a stable [`ServeStatus::code`] plus an optional
/// message ([`ServeStatus::message`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeStatus {
    /// The query was answered; the response carries its outcome.
    Ok,
    /// Shed at admission: the queue was full (or too full for the
    /// request's priority). Retry later or against another replica.
    Overloaded,
    /// The server is shutting down; no new work is admitted.
    ShuttingDown,
    /// The engine failed the query's batch.
    EngineError {
        /// The engine error, rendered.
        message: String,
    },
    /// The query's batch panicked in the executor; only that batch was
    /// poisoned.
    BatchPanicked,
    /// The response carries a *partial* outcome: one or more shards
    /// were down and the merged answer excludes their contribution.
    Degraded {
        /// Which shards failed and why, rendered.
        message: String,
    },
    /// The caller's deadline elapsed before the answer arrived.
    Timeout,
}

impl ServeStatus {
    /// Stable wire code.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ServeStatus::Ok => 0,
            ServeStatus::Overloaded => 1,
            ServeStatus::ShuttingDown => 2,
            ServeStatus::EngineError { .. } => 3,
            ServeStatus::BatchPanicked => 4,
            ServeStatus::Degraded { .. } => 5,
            ServeStatus::Timeout => 6,
        }
    }

    /// The status's message payload (empty for message-less statuses).
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            ServeStatus::EngineError { message } | ServeStatus::Degraded { message } => message,
            _ => "",
        }
    }

    /// Decodes a wire `(code, message)` pair.
    #[must_use]
    pub fn from_code(code: u8, message: String) -> Option<Self> {
        match code {
            0 => Some(ServeStatus::Ok),
            1 => Some(ServeStatus::Overloaded),
            2 => Some(ServeStatus::ShuttingDown),
            3 => Some(ServeStatus::EngineError { message }),
            4 => Some(ServeStatus::BatchPanicked),
            5 => Some(ServeStatus::Degraded { message }),
            6 => Some(ServeStatus::Timeout),
            _ => None,
        }
    }

    /// Whether the response carries a usable outcome ([`ServeStatus::Ok`]
    /// or a partial [`ServeStatus::Degraded`] answer).
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, ServeStatus::Ok | ServeStatus::Degraded { .. })
    }
}

impl fmt::Display for ServeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeStatus::Ok => write!(f, "ok"),
            ServeStatus::Overloaded => write!(f, "overloaded"),
            ServeStatus::ShuttingDown => write!(f, "shutting down"),
            ServeStatus::EngineError { message } => write!(f, "engine error: {message}"),
            ServeStatus::BatchPanicked => write!(f, "batch panicked"),
            ServeStatus::Degraded { message } => write!(f, "degraded: {message}"),
            ServeStatus::Timeout => write!(f, "deadline elapsed"),
        }
    }
}

impl From<&ServeError> for ServeStatus {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::Engine(err) => ServeStatus::EngineError {
                message: err.to_string(),
            },
            ServeError::BatchPanicked => ServeStatus::BatchPanicked,
        }
    }
}

/// How the serving layer sourced a response — surfaced in the envelope
/// (and on the wire) so clients and operators can tell a computed
/// answer from a cached or provably empty one when debugging staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// Computed by the engine (or failed before reaching any cache) —
    /// the default.
    #[default]
    Miss,
    /// Served from the epoch-stamped result cache without occupying a
    /// batch slot.
    Hit,
    /// Proven empty by the negative cache's vocabulary check; the empty
    /// outcome never occupied a batch slot.
    Negative,
}

impl CacheStatus {
    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            CacheStatus::Miss => 0,
            CacheStatus::Hit => 1,
            CacheStatus::Negative => 2,
        }
    }

    /// Decodes a wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(CacheStatus::Miss),
            1 => Some(CacheStatus::Hit),
            2 => Some(CacheStatus::Negative),
            _ => None,
        }
    }
}

/// The answer to one [`Request`]: the echoed id, the outcome when the
/// status carries one, and the status itself.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The query outcome — present exactly when
    /// [`ServeStatus::is_success`] (full for `Ok`, partial for
    /// `Degraded`).
    pub outcome: Option<QueryOutcome>,
    /// What happened.
    pub status: ServeStatus,
    /// How the answer was sourced (computed, result-cache hit, or
    /// negative cache).
    pub cached: CacheStatus,
}

impl Response {
    /// A successful response.
    #[must_use]
    pub fn ok(id: u64, outcome: QueryOutcome) -> Self {
        Self {
            id,
            outcome: Some(outcome),
            status: ServeStatus::Ok,
            cached: CacheStatus::Miss,
        }
    }

    /// A degraded (partial-outcome) response.
    #[must_use]
    pub fn degraded(id: u64, outcome: QueryOutcome, message: String) -> Self {
        Self {
            id,
            outcome: Some(outcome),
            status: ServeStatus::Degraded { message },
            cached: CacheStatus::Miss,
        }
    }

    /// A failed response (no outcome).
    #[must_use]
    pub fn failed(id: u64, status: ServeStatus) -> Self {
        debug_assert!(!status.is_success(), "success statuses carry an outcome");
        Self {
            id,
            outcome: None,
            status,
            cached: CacheStatus::Miss,
        }
    }

    /// Builder-style cache-status stamp.
    #[must_use]
    pub(crate) fn with_cache(mut self, cached: CacheStatus) -> Self {
        self.cached = cached;
        self
    }

    /// Folds a settled result — a claim's, or a direct engine call's —
    /// into the unified shape.
    #[must_use]
    pub fn from_result(id: u64, result: Result<QueryOutcome, ServeError>) -> Self {
        match result {
            Ok(outcome) => Self::ok(id, outcome),
            Err(e) => Self::failed(id, ServeStatus::from(&e)),
        }
    }
}

/// The claim on one submitted [`Request`]'s eventual [`Response`] — the
/// only one the serve layer hands out. Refused submissions resolve
/// immediately; admitted ones resolve when their batch executes or the
/// request's deadline elapses, whichever comes first. Every admitted
/// claim is answered exactly once — by its batch's flush, or by the
/// shutdown drain. Never an error: every failure mode is a
/// [`ServeStatus`].
pub struct PendingResponse {
    pub(crate) id: u64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) state: PendingState,
}

pub(crate) enum PendingState {
    /// Already settled (admission refusal).
    Ready(ServeStatus),
    /// Already answered by a cache tier at admission — never queued.
    Cached(QueryOutcome, CacheStatus),
    /// Admitted: waiting on the slot its batch fulfils.
    Waiting(Arc<TicketState>),
}

impl PendingResponse {
    /// The request's correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response is ready (or the request's deadline
    /// elapses, yielding [`ServeStatus::Timeout`]).
    #[must_use]
    pub fn wait(self) -> Response {
        match self.state {
            PendingState::Ready(status) => Response::failed(self.id, status),
            PendingState::Cached(outcome, cached) => {
                Response::ok(self.id, outcome).with_cache(cached)
            }
            PendingState::Waiting(slot) => match slot.wait_until(self.deadline) {
                Some(result) => Response::from_result(self.id, result),
                None => Response::failed(self.id, ServeStatus::Timeout),
            },
        }
    }

    /// Non-blocking probe: the response if [`PendingResponse::wait`]
    /// would return without parking (the batch has executed, the
    /// request never queued, or its deadline has passed), or the claim
    /// back, intact, if it would not — so a poll loop can keep the
    /// claim and wait on it later.
    ///
    /// # Errors
    /// The pending response itself, when the answer is not ready yet.
    // The `Err` is the claim itself, moved back to its owner — not an
    // error value anyone propagates.
    #[allow(clippy::result_large_err)]
    pub fn try_wait(self) -> Result<Response, Self> {
        if let PendingState::Waiting(slot) = &self.state {
            return match slot.take() {
                Some(result) => Ok(Response::from_result(self.id, result)),
                None if self.deadline.is_some_and(|d| Instant::now() >= d) => {
                    Ok(Response::failed(self.id, ServeStatus::Timeout))
                }
                None => Err(self),
            };
        }
        Ok(self.wait())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semask::engine::EngineError;

    #[test]
    fn status_codes_round_trip() {
        let statuses = [
            ServeStatus::Ok,
            ServeStatus::Overloaded,
            ServeStatus::ShuttingDown,
            ServeStatus::EngineError {
                message: "llm: scripted".to_owned(),
            },
            ServeStatus::BatchPanicked,
            ServeStatus::Degraded {
                message: "shard 1: connect refused".to_owned(),
            },
            ServeStatus::Timeout,
        ];
        for s in statuses {
            let back = ServeStatus::from_code(s.code(), s.message().to_owned()).unwrap();
            assert_eq!(back, s);
        }
        assert!(ServeStatus::from_code(99, String::new()).is_none());
    }

    #[test]
    fn serve_error_round_trips_through_status() {
        let engine = ServeError::Engine(Arc::new(EngineError::UnknownSuburb {
            suburb: "atlantis".to_owned(),
        }));
        // The engine error's rendered message travels in the status.
        let status = ServeStatus::from(&engine);
        assert_eq!(status.code(), 3);
        assert!(status.message().contains("atlantis"), "{status}");
        let back = ServeStatus::from_code(status.code(), status.message().to_owned());
        assert_eq!(back.as_ref(), Some(&status));
        assert_eq!(
            ServeStatus::from(&ServeError::BatchPanicked),
            ServeStatus::BatchPanicked
        );
    }

    #[test]
    fn priority_codes_and_quanta() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_code(p.code()), Some(p));
        }
        assert!(Priority::from_code(7).is_none());
        assert!(Priority::Low.quantum() < Priority::Normal.quantum());
        assert!(Priority::Normal.quantum() < Priority::High.quantum());
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
