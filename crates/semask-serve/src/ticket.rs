//! Tickets: the claim on an accepted query's answer, and the doorbell
//! one flush rings for all of its tickets.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use semask::query::QueryOutcome;

use crate::ServeError;

/// Longest single condvar park in [`Ticket::wait_deadline`]: deadlines
/// further out are reached in several wakeups. Keeps the timeout
/// arithmetic comfortably inside what `Condvar::wait_timeout` supports.
const MAX_PARK: Duration = Duration::from_secs(3600);

/// The server-wide fulfilment doorbell, shared by every ticket of one
/// server. A flush fulfils all its tickets in one pass — write every
/// slot, then bump the generation and ring **once** — instead of a
/// per-ticket lock-and-notify, which dominated the serving overhead at
/// large caps (one syscall-bound `notify_all` per ticket).
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

/// One ticket slot, fulfilled exactly once by the batcher.
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
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        *slot = Some(result);
    }
}

/// A claim on one accepted query's eventual answer.
///
/// Every accepted ticket is answered exactly once — by its batch's
/// flush, or by the shutdown drain.
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the query's micro-batch has executed and returns its
    /// outcome.
    ///
    /// # Errors
    /// [`ServeError`] when the batch failed or panicked.
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        // Fast path: already answered.
        if let Some(result) = self
            .state
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            return result;
        }
        // Park on the shared doorbell. The slot re-check happens while
        // holding the generation lock (see Doorbell) so the single
        // batched ring per flush cannot be missed. Slot and generation
        // locks are never held together by the fulfiller, so the
        // slot-inside-generation nesting here cannot deadlock.
        let mut generation = self
            .state
            .bell
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = self
                .state
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                return result;
            }
            generation = self
                .state
                .bell
                .rung
                .wait(generation)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Like [`Ticket::wait`], but gives up at `deadline` (wall clock):
    /// the settled result when the batch executed in time, or the
    /// ticket back (claim intact, waitable again) on expiry. The
    /// server-side work is unaffected by an expired wait — only the
    /// claim's owner stopped waiting.
    ///
    /// # Errors
    /// The ticket itself, when `deadline` passed before the answer.
    pub fn wait_deadline(
        self,
        deadline: Instant,
    ) -> Result<Result<QueryOutcome, ServeError>, Ticket> {
        // Same doorbell protocol as `wait` (slot re-check under the
        // generation lock), with a bounded park per loop. The bell Arc
        // is cloned so the guard's borrow doesn't pin `self`, which the
        // expiry path returns by value.
        let bell = Arc::clone(&self.state.bell);
        let mut generation = bell
            .generation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = self
                .state
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(generation);
                return Err(self);
            }
            let timeout = deadline.saturating_duration_since(now).min(MAX_PARK);
            let (guard, _timed_out) = bell
                .rung
                .wait_timeout(generation, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            generation = guard;
        }
    }

    /// Non-blocking probe: the outcome if the batch has executed, or
    /// the ticket back (unconsumed) if it has not — so a poll loop can
    /// keep the claim and later [`Ticket::wait`] without deadlocking.
    ///
    /// # Errors
    /// The ticket itself, when the answer is not ready yet.
    pub fn try_wait(self) -> Result<Result<QueryOutcome, ServeError>, Ticket> {
        let taken = self
            .state
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        taken.ok_or(self)
    }
}
