//! A bounded MPMC queue — the admission edge of the server.
//!
//! `try_push` never blocks: a full queue is an *immediate* `overloaded`
//! reply to the client (load shedding), which is what keeps tail
//! latency bounded under overload — queued work is work the server has
//! promised to do within its deadline.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity: shed the request.
    Full,
    /// The queue is closed: the server is shutting down.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Items popped but not yet marked done via
    /// [`BoundedQueue::task_done`]; incremented under the queue lock at
    /// pop time.
    in_flight: usize,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false, in_flight: 0 }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity (shed the request),
    /// [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    /// Parks with a bounded timeout, so a lost wakeup costs one period,
    /// never a hang.
    ///
    /// A popped item counts as *in flight* until the consumer calls
    /// [`BoundedQueue::task_done`].
    pub fn pop(&self) -> Option<T> {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.in_flight += 1;
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.nonempty.wait_timeout(inner, Duration::from_millis(50)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail,
    /// and poppers return `None` once empty.
    pub fn close(&self) {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.closed = true;
        drop(inner);
        self.nonempty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(g) => g.items.len(),
            Err(poisoned) => poisoned.into_inner().items.len(),
        }
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks one previously popped item as fully processed.
    pub fn task_done(&self) {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.in_flight = inner.in_flight.saturating_sub(1);
    }

    /// Items popped but not yet marked done — requests currently being
    /// executed by workers.
    pub fn in_flight(&self) -> usize {
        match self.inner.lock() {
            Ok(g) => g.in_flight,
            Err(poisoned) => poisoned.into_inner().in_flight,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        q.close();
        assert_eq!(q.try_push(11), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn popped_items_stay_in_flight_until_done() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.in_flight(), 0);
        q.try_push(1).unwrap();
        assert_eq!(q.in_flight(), 0, "a queued item is not in flight");
        assert_eq!(q.pop(), Some(1));
        // Queue drained, but the item is still being processed.
        assert!(q.is_empty());
        assert_eq!(q.in_flight(), 1);
        q.task_done();
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn wakes_a_blocked_popper() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7).unwrap();
        assert_eq!(handle.join().unwrap(), Some(7));
    }
}
