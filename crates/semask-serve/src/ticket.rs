//! The slot behind an accepted query's claim, and the doorbell one
//! flush rings for all of its slots.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use semask::query::QueryOutcome;

use crate::ServeError;

/// Longest single condvar park in [`TicketState::wait_until`]: deadlines
/// further out are reached in several wakeups. Keeps the timeout
/// arithmetic comfortably inside what `Condvar::wait_timeout` supports.
const MAX_PARK: Duration = Duration::from_secs(3600);

/// The server-wide fulfilment doorbell, shared by every claim of one
/// server. A flush fulfils all its claims in one pass — write every
/// slot, then bump the generation and ring **once** — instead of a
/// per-claim lock-and-notify, which dominated the serving overhead at
/// large caps (one syscall-bound `notify_all` per claim).
///
/// Lost wakeups are impossible by lock ordering: a waiter re-checks its
/// slot *while holding the generation lock* and parks on that same
/// lock, and the fulfiller writes all slots strictly before taking the
/// generation lock to ring. So at the moment a waiter decides to park,
/// either its slot is already set (it doesn't park) or the ring for it
/// is still in the future (the park is woken).
pub(crate) struct Doorbell {
    generation: Mutex<u64>,
    rung: Condvar,
}

impl Doorbell {
    pub(crate) fn new() -> Self {
        Self {
            generation: Mutex::new(0),
            rung: Condvar::new(),
        }
    }

    /// One batched wakeup for everything written since the last ring.
    pub(crate) fn ring(&self) {
        let mut generation = self
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        self.rung.notify_all();
    }
}

/// The slot behind one admitted query's claim, fulfilled exactly once
/// by the batcher — by the query's flush, or by the shutdown drain.
/// [`crate::api::PendingResponse`] reads it through the probe and the
/// parked wait below; both take `&self`, so a not-ready probe or an
/// expired wait leaves the claim intact.
pub(crate) struct TicketState {
    slot: Mutex<Option<Result<QueryOutcome, ServeError>>>,
    bell: Arc<Doorbell>,
}

impl TicketState {
    pub(crate) fn new(bell: Arc<Doorbell>) -> Self {
        Self {
            slot: Mutex::new(None),
            bell,
        }
    }

    /// Writes the answer without waking anyone — the flush rings the
    /// shared [`Doorbell`] once after *all* its slots are written.
    pub(crate) fn set(&self, result: Result<QueryOutcome, ServeError>) {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        debug_assert!(slot.is_none(), "claim fulfilled twice");
        *slot = Some(result);
    }

    /// Non-blocking probe: the answer if the batch has executed.
    pub(crate) fn take(&self) -> Option<Result<QueryOutcome, ServeError>> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Blocks until the query's micro-batch has executed and returns its
    /// answer, or gives up at `deadline` (wall clock) with `None`. The
    /// server-side work is unaffected by an expired wait — only the
    /// claim's owner stopped waiting.
    pub(crate) fn wait_until(
        &self,
        deadline: Option<Instant>,
    ) -> Option<Result<QueryOutcome, ServeError>> {
        // Fast path: already answered.
        if let Some(result) = self.take() {
            return Some(result);
        }
        // Park on the shared doorbell. The slot re-check happens while
        // holding the generation lock (see Doorbell) so the single
        // batched ring per flush cannot be missed. Slot and generation
        // locks are never held together by the fulfiller, so the
        // slot-inside-generation nesting here cannot deadlock.
        let mut generation = self
            .bell
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = self.take() {
                return Some(result);
            }
            generation = match deadline {
                None => self
                    .bell
                    .rung
                    .wait(generation)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let timeout = deadline.saturating_duration_since(now).min(MAX_PARK);
                    self.bell
                        .rung
                        .wait_timeout(generation, timeout)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}
