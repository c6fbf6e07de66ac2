//! Weighted round-robin fair admission across connections.
//!
//! The PR 4 serve layer admits strictly FIFO, so one hot client that
//! floods the queue starves everyone else (the documented
//! hot-client-starvation follow-up). `FairGate` fixes that at the
//! network edge: each connection gets its own queue, and connections
//! are served in rotation, up to the head item's *quantum* (derived
//! from [`semask_serve::api::Priority`]) per turn. Combined with the
//! per-connection in-flight cap in the server (which pushes back on the
//! socket via unread bytes), no connection can monopolize admission no
//! matter how fast it writes.
//!
//! The gate has no thread of its own. Whoever queues work also calls
//! `FairGate::serve`; the first caller to find the gate idle takes the
//! **baton** and runs turns until the gate is empty, and everyone who
//! queues meanwhile returns at once — their items are served by the
//! baton holder, in rotation. So the handler passed to `serve` never
//! runs concurrently with itself, queued work always has a server, and a
//! lone connection is served on its own thread with no hand-off at all.
//!
//! A holder that has served one full rotation offers the baton to the
//! next caller of `serve` (and keeps serving until one comes), so under
//! sustained load from several connections no thread is kept from its
//! own socket for more than a rotation. The baton changes hands only
//! *between* turns: a connection's items are handled strictly in push
//! order, whichever threads handle them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Who is serving the gate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Baton {
    /// Nobody: the next [`FairGate::serve`] caller takes it.
    Down,
    /// Some thread is in the turn loop and keeps the baton.
    Held,
    /// The holder has served a full rotation: the next `serve` caller
    /// may claim the baton (the holder serves on until one does).
    Offered,
    /// A caller claimed the offered baton and waits for the turn in
    /// progress to end.
    Claimed,
}

struct GateState<T> {
    /// Per-connection FIFO of `(item, quantum)`.
    queues: HashMap<u64, VecDeque<(T, usize)>>,
    /// Round-robin rotation of connections that have queued items.
    order: VecDeque<u64>,
    closed: bool,
    baton: Baton,
}

/// A multi-producer queue that is served fairly across producers, by
/// the producers themselves.
pub(crate) struct FairGate<T> {
    state: Mutex<GateState<T>>,
    /// Signalled when the baton is passed on or put down.
    baton_moved: Condvar,
}

impl<T> Default for FairGate<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairGate<T> {
    /// Creates an open gate with no queues.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(GateState {
                queues: HashMap::new(),
                order: VecDeque::new(),
                closed: false,
                baton: Baton::Down,
            }),
            baton_moved: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState<T>> {
        self.state.lock().expect("gate lock")
    }

    /// Enqueues `item` for `conn` with the given turn quantum. Returns
    /// `false` (dropping the item) once the gate is closed. Never
    /// blocks and never serves: follow every accepted push with
    /// [`FairGate::serve`].
    pub fn push(&self, conn: u64, item: T, quantum: usize) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        let queue = state.queues.entry(conn).or_default();
        let was_empty = queue.is_empty();
        queue.push_back((item, quantum.max(1)));
        if was_empty {
            state.order.push_back(conn);
        }
        true
    }

    /// Serves queued turns with `handle` if nobody else is: takes the
    /// baton when the gate is idle (or its holder offers it) and runs
    /// turns until the gate is empty or another caller claims the
    /// baton. Returns at once when another thread holds the baton and
    /// keeps it — that thread serves what this caller pushed.
    ///
    /// One turn is one connection's id and up to one quantum of its
    /// items (the quantum of the turn's head item — a high-priority
    /// head earns the whole turn its larger slice); the connection then
    /// rotates to the back of the order, so `N` active connections each
    /// get every `N`-th turn.
    ///
    /// `handle` runs outside the gate's lock and is never entered twice
    /// at once. It must not block on anything that needs the gate
    /// served to make progress. The only wait in here is a claimant's,
    /// for the turn in progress to end.
    pub fn serve(&self, mut handle: impl FnMut(u64, Vec<T>)) {
        let mut state = self.lock();
        if state.order.is_empty() {
            return;
        }
        match state.baton {
            Baton::Down => {}
            Baton::Held | Baton::Claimed => return,
            Baton::Offered => {
                state.baton = Baton::Claimed;
                while state.baton == Baton::Claimed {
                    state = self.baton_moved.wait(state).expect("gate lock");
                }
            }
        }
        state.baton = Baton::Held;
        let mut rotation = state.order.len();
        loop {
            if state.baton == Baton::Claimed {
                // The claimant holds the baton from here.
                state.baton = Baton::Held;
                break;
            }
            if rotation == 0 {
                state.baton = Baton::Offered;
            }
            let Some((conn, batch)) = Self::pop_turn(&mut state) else {
                state.baton = Baton::Down;
                break;
            };
            drop(state);
            handle(conn, batch);
            state = self.lock();
            rotation = rotation.saturating_sub(1);
        }
        drop(state);
        self.baton_moved.notify_all();
    }

    fn pop_turn(state: &mut GateState<T>) -> Option<(u64, Vec<T>)> {
        let conn = state.order.pop_front()?;
        let queue = state.queues.get_mut(&conn).expect("queued conn");
        let quantum = queue.front().map_or(1, |(_, q)| *q);
        let mut batch = Vec::with_capacity(quantum.min(queue.len()));
        for _ in 0..quantum {
            match queue.pop_front() {
                Some((item, _)) => batch.push(item),
                None => break,
            }
        }
        if queue.is_empty() {
            state.queues.remove(&conn);
        } else {
            state.order.push_back(conn);
        }
        Some((conn, batch))
    }

    /// Drops everything queued for one connection (it disconnected; its
    /// pending work has nowhere to go).
    pub(crate) fn close_conn(&self, conn: u64) {
        let mut state = self.lock();
        state.queues.remove(&conn);
        state.order.retain(|&c| c != conn);
        drop(state);
        self.baton_moved.notify_all();
    }

    /// Closes the gate gracefully: later pushes are refused, and the
    /// call returns once everything queued before it has been served
    /// and the baton is down. (Each accepted push is followed by its
    /// pusher's `serve`, so queued work always has someone to wait for.)
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        while state.baton != Baton::Down || !state.order.is_empty() {
            state = self.baton_moved.wait(state).expect("gate lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// Serves the gate on this thread and returns the turns in order.
    fn turns<T>(gate: &FairGate<T>) -> Vec<(u64, Vec<T>)> {
        let mut served = Vec::new();
        gate.serve(|conn, batch| served.push((conn, batch)));
        served
    }

    #[test]
    fn drains_round_robin_across_connections() {
        let gate = FairGate::new();
        // Conn 1 floods 6 items before conn 2 queues its single one.
        for i in 0..6 {
            assert!(gate.push(1, format!("a{i}"), 1));
        }
        assert!(gate.push(2, "b0".to_string(), 1));
        let order: Vec<u64> = turns(&gate).into_iter().map(|(conn, _)| conn).collect();
        // Conn 2 is served on the second turn, not after conn 1's flood.
        assert_eq!(order, vec![1, 2, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn quantum_sizes_the_turn() {
        let gate = FairGate::new();
        for i in 0..5 {
            assert!(gate.push(1, i, 4));
        }
        assert!(gate.push(2, 100, 1));
        assert_eq!(
            turns(&gate),
            vec![(1, vec![0, 1, 2, 3]), (2, vec![100]), (1, vec![4])]
        );
        assert!(turns(&gate).is_empty());
    }

    #[test]
    fn close_drains_then_stops() {
        let gate = Arc::new(FairGate::new());
        assert!(gate.push(7, "queued", 1));
        let closed = Arc::new(AtomicBool::new(false));
        let closer = {
            let (gate, closed) = (Arc::clone(&gate), Arc::clone(&closed));
            std::thread::spawn(move || {
                gate.close();
                closed.store(true, Ordering::SeqCst);
            })
        };
        // Probes accepted before `close` got the lock are queued work
        // like any other; the first refusal means `close` has marked
        // the gate and, with work still queued, is waiting.
        let mut queued = 1;
        while gate.push(8, "probe", 1) {
            queued += 1;
            std::thread::yield_now();
        }
        assert!(!closed.load(Ordering::SeqCst), "close returned over work");
        let served: usize = turns(&gate).iter().map(|(_, batch)| batch.len()).sum();
        assert_eq!(served, queued);
        closer.join().expect("closer");
        assert!(closed.load(Ordering::SeqCst));
        assert!(!gate.push(7, "refused", 1));
    }

    #[test]
    fn close_conn_discards_its_queue_only() {
        let gate = FairGate::new();
        assert!(gate.push(1, "gone", 1));
        assert!(gate.push(2, "kept", 1));
        gate.close_conn(1);
        assert_eq!(turns(&gate), vec![(2, vec!["kept"])]);
    }

    /// The baton passes between turns, after one rotation, to the next
    /// thread that serves — scripted: thread A is held inside each of
    /// its turns until the test lets it go.
    #[test]
    fn baton_changes_hands_after_a_rotation() {
        let gate = Arc::new(FairGate::new());
        let (entered_tx, entered) = channel();
        let (resume, resume_rx) = channel::<()>();
        assert!(gate.push(1, "a0", 1));
        let a = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut served = Vec::new();
                gate.serve(|_, batch: Vec<&str>| {
                    served.extend(batch);
                    entered_tx.send(()).expect("test listening");
                    resume_rx.recv().expect("resumed");
                });
                served
            })
        };
        // A holds the baton inside its first turn (a rotation of one).
        entered.recv().expect("A's first turn");
        assert!(gate.push(2, "b0", 1));
        assert!(gate.push(1, "a1", 1));
        assert!(
            turns(&gate).is_empty(),
            "mid-rotation the holder keeps the baton and a second server returns at once"
        );
        // Rotation over: A offers the baton and serves on (b0) meanwhile.
        resume.send(()).expect("A parked");
        entered.recv().expect("A's second turn");
        let b = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                assert!(gate.push(2, "b1", 1));
                turns(&gate)
            })
        };
        // B claims and waits for the turn in progress; only then is A
        // let go, so the hand-over is A's next step.
        while gate.lock().baton != Baton::Claimed {
            std::thread::yield_now();
        }
        resume.send(()).expect("A parked");
        assert_eq!(a.join().expect("A"), vec!["a0", "b0"]);
        assert_eq!(
            b.join().expect("B"),
            vec![(1, vec!["a1"]), (2, vec!["b1"])],
            "B serves what is left, each connection still in push order"
        );
        gate.close();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pushers × items over connections: served exactly once, never
        /// two turns at once, each connection in push order.
        #[test]
        fn every_item_is_served_once_in_connection_order(
            pushers in 1usize..5,
            conns_each in 1u64..4,
            items in 1u64..60,
            quantum in 1usize..5,
        ) {
            let gate = Arc::new(FairGate::new());
            let busy = Arc::new(AtomicBool::new(false));
            let served = Arc::new(Mutex::new(Vec::new()));
            let threads: Vec<_> = (0..pushers as u64)
                .map(|p| {
                    let (gate, busy, served) =
                        (Arc::clone(&gate), Arc::clone(&busy), Arc::clone(&served));
                    std::thread::spawn(move || {
                        for seq in 0..items {
                            // Each connection has one pusher, so its
                            // push order is that thread's `seq` order.
                            let conn = p * conns_each + seq % conns_each;
                            assert!(gate.push(conn, (conn, seq), quantum));
                            gate.serve(|turn_conn, batch| {
                                assert!(!busy.swap(true, Ordering::SeqCst), "two turns at once");
                                let mut served = served.lock().expect("served");
                                for (conn, seq) in batch {
                                    assert_eq!(conn, turn_conn);
                                    served.push((conn, seq));
                                }
                                drop(served);
                                busy.store(false, Ordering::SeqCst);
                            });
                        }
                    })
                })
                .collect();
            for thread in threads {
                thread.join().expect("pusher");
            }
            // Every pusher's last `serve` returned, so nothing is queued.
            gate.close();
            let served = served.lock().expect("served");
            prop_assert_eq!(served.len() as u64, pushers as u64 * items);
            let mut last: HashMap<u64, u64> = HashMap::new();
            for &(conn, seq) in served.iter() {
                if let Some(prev) = last.insert(conn, seq) {
                    prop_assert!(prev < seq, "conn {} served {} after {}", conn, seq, prev);
                }
            }
        }
    }
}
