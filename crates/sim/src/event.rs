//! Deterministic discrete-event machinery.
//!
//! Simulation time is an integer count of **picoseconds** (`u64`), which
//! keeps event ordering exact (no floating-point ties) while covering
//! ~213 days of simulated time — far beyond any training iteration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in picoseconds.
pub type Time = u64;

/// Clamps a floating-point picosecond count onto the integer timeline:
/// NaN and non-positive values map to `0`, values at or beyond `u64::MAX`
/// map to [`Time::MAX`], everything else rounds to the nearest tick.
fn saturate_ps(ps: f64) -> Time {
    if ps.is_nan() || ps <= 0.0 {
        return 0;
    }
    if ps >= u64::MAX as f64 {
        return Time::MAX;
    }
    ps.round() as Time
}

/// Converts seconds to picoseconds, rounding to the nearest tick.
///
/// Total and profile-independent (no `debug_assert`): NaN or negative
/// input saturates to `0`, durations beyond the `u64` range saturate to
/// [`Time::MAX`]. Identical behaviour in debug and release builds.
pub fn secs_to_ps(secs: f64) -> Time {
    saturate_ps(secs * 1e12)
}

/// Converts picoseconds back to seconds.
pub fn ps_to_secs(ps: Time) -> f64 {
    ps as f64 / 1e12
}

/// Transfer duration of `bytes` at `gbps` GB/s, in picoseconds.
///
/// Total and profile-independent, with **documented saturating
/// behaviour** (this used to debug-panic on `gbps <= 0` while silently
/// returning garbage in release builds):
///
/// * non-positive or NaN bandwidth → [`Time::MAX`] (a link with no
///   bandwidth never completes a transfer, regardless of payload);
/// * NaN or non-positive bytes → `0`;
/// * durations beyond the `u64` range → [`Time::MAX`];
/// * sub-picosecond transfers round to the nearest tick (so anything
///   under 0.5 ps, including zero bytes, is instantaneous).
///
/// Callers adding a saturated duration to a timestamp should use
/// `Time::saturating_add`, as the collective engine does.
pub fn transfer_ps(bytes: f64, gbps: f64) -> Time {
    if gbps.is_nan() || gbps <= 0.0 {
        return Time::MAX;
    }
    // bytes / (gbps · 1e9) seconds = bytes · 1e3 / gbps picoseconds.
    saturate_ps(bytes * 1e3 / gbps)
}

/// α-β transfer duration: `latency_ps` of bandwidth-independent message
/// overhead (hop latency, switch traversal) plus the serialization time of
/// `bytes` at `gbps` GB/s. Saturating like [`transfer_ps`]; the latency
/// term composes with `saturating_add`, so a saturated serialization time
/// stays [`Time::MAX`].
pub fn transfer_with_latency_ps(bytes: f64, gbps: f64, latency_ps: Time) -> Time {
    transfer_ps(bytes, gbps).saturating_add(latency_ps)
}

/// A time-ordered event queue with stable FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at `time`. Events at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// The time of the event [`EventQueue::pop`] would return next.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drops all pending events and resets the FIFO sequence counter, so a
    /// reused queue orders identical event batches identically regardless
    /// of what ran through it before. Keeps the heap's allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(secs_to_ps(1.5), 1_500_000_000_000);
        assert!((ps_to_secs(secs_to_ps(0.123456)) - 0.123456).abs() < 1e-12);
    }

    /// `secs_to_ps` and `ps_to_secs` round-trip exactly for every whole
    /// picosecond count, and rounding is to-nearest at the 0.5 ps boundary.
    #[test]
    fn conversions_round_trip_and_round_to_nearest() {
        for &ps in &[0u64, 1, 2, 999, 1_000_000, 1_500_000_000_000, 123_456_789_012_345] {
            assert_eq!(secs_to_ps(ps_to_secs(ps)), ps, "round-trip of {ps} ps");
        }
        // 0.4 ps rounds down to zero; 0.6 ps rounds up to one tick.
        assert_eq!(secs_to_ps(0.4e-12), 0);
        assert_eq!(secs_to_ps(0.6e-12), 1);
        // Saturation: negative and NaN → 0; beyond-u64 → Time::MAX.
        assert_eq!(secs_to_ps(-1.0), 0);
        assert_eq!(secs_to_ps(f64::NAN), 0);
        assert_eq!(secs_to_ps(1e9), Time::MAX, "1e21 ps overflows u64");
    }

    #[test]
    fn transfer_duration_math() {
        // 1 GB at 100 GB/s = 10 ms = 1e10 ps.
        assert_eq!(transfer_ps(1e9, 100.0), 10_000_000_000);
        // Zero bytes take zero time.
        assert_eq!(transfer_ps(0.0, 50.0), 0);
    }

    /// Regression: `transfer_ps` used to debug-panic on non-positive
    /// bandwidth and return rounding garbage in release builds. It is now
    /// total with documented saturating behaviour, identical across
    /// profiles — this test runs under both `cargo test` and
    /// `cargo test --release` in CI.
    #[test]
    fn transfer_saturates_instead_of_panicking() {
        // No bandwidth → the transfer never completes.
        assert_eq!(transfer_ps(1e9, 0.0), Time::MAX);
        assert_eq!(transfer_ps(1e9, -3.0), Time::MAX);
        assert_eq!(transfer_ps(1e9, f64::NAN), Time::MAX);
        // Even a zero-byte payload cannot cross a dead link.
        assert_eq!(transfer_ps(0.0, 0.0), Time::MAX);
        // Negative / NaN payloads are instantaneous, not negative time.
        assert_eq!(transfer_ps(-1e9, 10.0), 0);
        assert_eq!(transfer_ps(f64::NAN, 10.0), 0);
        // Astronomically slow links saturate rather than wrap.
        assert_eq!(transfer_ps(1e30, 1e-6), Time::MAX);
        // Saturated durations compose safely with saturating_add.
        assert_eq!(Time::MAX.saturating_add(transfer_ps(1e9, 10.0)), Time::MAX);
    }

    /// α-β transfers add the latency on top of serialization and keep the
    /// saturating semantics of the pure-β form.
    #[test]
    fn transfer_with_latency_adds_and_saturates() {
        // 1 GB at 100 GB/s = 1e10 ps serialization + 500 ps latency.
        assert_eq!(transfer_with_latency_ps(1e9, 100.0, 500), 10_000_000_500);
        // Zero latency is exactly the pure-β duration.
        assert_eq!(transfer_with_latency_ps(1e9, 100.0, 0), transfer_ps(1e9, 100.0));
        // Latency alone still delays an empty payload.
        assert_eq!(transfer_with_latency_ps(0.0, 10.0, 42), 42);
        // Dead links and overflowing sums saturate instead of wrapping.
        assert_eq!(transfer_with_latency_ps(1e9, 0.0, 42), Time::MAX);
        assert_eq!(transfer_with_latency_ps(1e9, 10.0, Time::MAX), Time::MAX);
    }

    /// Sub-picosecond transfers round to the nearest tick.
    #[test]
    fn sub_picosecond_transfers_round_to_nearest() {
        // bytes · 1e3 / gbps ps: 0.4 ps → 0; 0.6 ps → 1.
        assert_eq!(transfer_ps(4e-4, 1.0), 0);
        assert_eq!(transfer_ps(6e-4, 1.0), 1);
        // An exactly representable half-tick (0.5 · 1e3 / 1000 = 0.5 ps)
        // rounds away from zero.
        assert_eq!(transfer_ps(0.5, 1000.0), 1);
    }

    /// FIFO tie-breaking survives interleaved pops: events pushed at an
    /// equal timestamp *after* some of that timestamp's events were already
    /// popped still drain in overall insertion order, and ties at a given
    /// time never jump ahead of earlier times.
    #[test]
    fn interleaved_pushes_keep_fifo_order_at_equal_times() {
        let mut q = EventQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        q.push(5, "c"); // same timestamp, inserted after a pop
        q.push(3, "early");
        assert_eq!(q.pop(), Some((3, "early")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_names_the_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(9, "late");
        q.push(4, "early");
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.pop(), Some((4, "early")));
        assert_eq!(q.peek_time(), Some(9));
    }
}
