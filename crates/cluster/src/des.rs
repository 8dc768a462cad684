//! Minimal discrete-event simulation core.
//!
//! A time-ordered event queue with stable FIFO ordering for ties —
//! enough machinery for the cluster simulator without pulling in an
//! external framework. Determinism matters more than speed here: every
//! experiment must replay exactly from its seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulation time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Simulation time in seconds.
    pub time: f64,
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first;
        // ties break by insertion order (FIFO).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue driving a simulation.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue at time zero with heap space for `capacity`
    /// events, so warehouse-scale runs (hundreds of thousands of
    /// pre-scheduled arrivals) skip the doubling reallocations.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time is NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Schedules `event` after a delay from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN. (`NaN.max(0.0)` is `0.0`, so without
    /// the explicit check a NaN delay would silently schedule at
    /// `now` instead of being rejected.)
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(!delay.is_nan(), "event time is NaN");
        let now = self.now;
        self.schedule(now + delay.max(0.0), event);
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some(s)
    }

    /// Time of the earliest pending event without popping it — the
    /// merge point when two queues (e.g. a serving front end and the
    /// cluster it feeds) advance in lockstep.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        q.schedule(2.0, 2);
        q.schedule(2.0, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn next_time_peeks_without_advancing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(5.0, "b");
        q.schedule(2.0, "a");
        assert_eq!(q.next_time(), Some(2.0));
        assert_eq!(q.now(), 0.0, "peek must not advance the clock");
        q.pop();
        assert_eq!(q.next_time(), Some(5.0));
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(4.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 4.0);
        q.schedule_in(1.5, ());
        let s = q.pop().unwrap();
        assert!((s.time - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn no_time_travel() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(5.0, ());
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn nan_time_is_rejected() {
        // A NaN time would float to an arbitrary heap position under
        // total_cmp and silently corrupt the merge order downstream —
        // it must be refused at the door.
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "time is NaN")]
    fn nan_delay_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_in(f64::NAN, ());
    }
}
