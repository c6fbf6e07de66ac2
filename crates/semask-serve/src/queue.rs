//! The bounded admission buffer.
//!
//! A plain FIFO ring with a hard capacity: when it is full,
//! `BoundedQueue::push` hands the item straight back instead of growing
//! or blocking. That refusal is the serving layer's entire backpressure
//! story — an overloaded server sheds *at admission*, immediately and
//! with bounded memory, rather than queueing unboundedly and timing
//! everyone out later.

use std::collections::VecDeque;

/// A FIFO queue that refuses pushes beyond its capacity.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// The hard capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends `item`, or returns it to the caller if the queue is full
    /// (the shed path — the caller maps this to `Overloaded`).
    ///
    /// # Errors
    /// The rejected item, unchanged, when at capacity.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns up to `n` items in FIFO order.
    pub(crate) fn take_up_to(&mut self, n: usize) -> Vec<T> {
        let n = n.min(self.items.len());
        self.items.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_refuses_beyond_capacity_and_returns_item() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
        // Draining frees capacity again.
        assert_eq!(q.take_up_to(1), vec![1]);
        assert!(q.push(3).is_ok());
        assert_eq!(q.take_up_to(10), vec![2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_order_and_front() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.items.front(), Some(&0));
        assert_eq!(q.take_up_to(3), vec![0, 1, 2]);
        assert_eq!(q.items.front(), Some(&3));
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(7).is_ok());
        assert_eq!(q.push(8), Err(8));
    }
}
