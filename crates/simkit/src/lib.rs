//! # simkit — the seeded discrete-event kernel
//!
//! Everything in this workspace that pretends to be "time" — cluster job
//! arrivals, region enter/exit events, node churn, network message
//! delivery — runs on the same three pieces:
//!
//! * [`VirtualClock`] — a monotone `u64` virtual timestamp. The unit is
//!   the *caller's* choice (the cluster service uses microseconds, the
//!   net fabric uses ticks); the kernel only requires monotonicity.
//! * [`EventHeap`] — a priority queue of typed events ordered by
//!   `(deliver_at, seq_id)`. The sequence id breaks same-instant ties
//!   deterministically: events scheduled earlier fire earlier. This is
//!   the exact rule `rrl::net::SimTransport` has used since PR 6 (there
//!   the tie-break key is the monotone message id, threaded in via
//!   [`EventHeap::schedule_keyed`]). The queue is a sorted FIFO run
//!   beside a binary min-heap: an entry scheduled in order (not below
//!   the run's last entry) is appended to the run, anything else goes
//!   to the heap, and a pop takes the smaller of the two heads. A
//!   pre-sorted arrival trace therefore never enters the heap, which
//!   only holds the events the run loop schedules as it goes. Because
//!   every pending entry has a distinct `(deliver_at, seq_id)` (see
//!   [`EventHeap`]), the pop order is that one total order whichever
//!   structure holds an entry. In the worst case every entry is
//!   scheduled out of order and goes to the heap, at a plain binary
//!   heap's cost plus one comparison per schedule and per pop.
//! * [`Kernel`] + the [`Process`]/[`EventSink`] traits — the run loop.
//!   [`Kernel::run`] pops the earliest event, advances the clock to its
//!   timestamp, and hands it to the process, which may schedule further
//!   events through the sink. The loop ends when the heap is empty
//!   (quiescence).
//!
//! ## Determinism rules
//!
//! 1. There is no wall clock and no randomness anywhere in the kernel:
//!    the execution order is a pure function of the scheduled
//!    `(deliver_at, seq_id)` pairs. (The recorded run loop,
//!    [`Kernel::run_recorded`], *observes* the wall clock to annotate
//!    telemetry, but never lets it influence ordering — recording on
//!    and off execute the same event sequence.)
//! 2. The clock never moves backwards. A sink schedule aimed at the past
//!    is clamped to *now* (it still fires after every event already
//!    queued for *now*, because its sequence id is larger).
//! 3. Sequence ids are assigned monotonically per heap — two events at
//!    the same instant fire in the order they were scheduled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use obskit::{Recorder, Track};

/// A virtual timestamp. The unit is chosen by the component driving the
/// kernel (microseconds for the cluster service, ticks for the net
/// fabric); the kernel itself only ever compares and maxes them.
pub type Time = u64;

/// A monotone virtual clock.
///
/// The clock only moves forward: [`advance_to`](VirtualClock::advance_to)
/// with a timestamp in the past is a no-op, so a component that advances
/// the clock to each popped event time observes a monotone sequence by
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: Time,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Move the clock forward to `at` (no-op when `at` is in the past).
    /// Returns the new current time.
    pub fn advance_to(&mut self, at: Time) -> Time {
        self.now = self.now.max(at);
        self.now
    }

    /// Move the clock forward by `delta`. Returns the new current time.
    pub fn advance(&mut self, delta: Time) -> Time {
        self.now = self.now.saturating_add(delta);
        self.now
    }
}

/// One event popped from an [`EventHeap`]: its due time, its tie-break
/// sequence id, and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual instant the event fires at.
    pub at: Time,
    /// The deterministic tie-break id (scheduling order, or the caller's
    /// key for [`EventHeap::schedule_keyed`] entries).
    pub seq: u64,
    /// The typed payload.
    pub event: E,
}

/// Heap entry ordered so the std max-heap pops the *smallest*
/// `(at, seq)` first.
struct Entry<E>(Scheduled<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the smallest (at, seq) is the "greatest" entry.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A time-ordered event queue with deterministic `(deliver_at, seq_id)`
/// tie-breaking.
///
/// [`schedule`](EventHeap::schedule) assigns monotone internal sequence
/// ids (same-instant events fire in scheduling order);
/// [`schedule_keyed`](EventHeap::schedule_keyed) lets a component supply
/// its own tie-break key — `SimTransport` threads its monotone message id
/// through so same-tick deliveries sort by message id, exactly as the
/// pre-kernel transport did. The internal counter is bumped past every
/// caller key, so the two schemes never collide on one heap.
///
/// # Run plus heap
///
/// Pending entries live in two structures: a FIFO *run* kept sorted by
/// `(at, seq)`, and a binary min-heap. A new entry is appended to the
/// run when its `(at, seq)` is not below the run's last entry (or the
/// run is empty); otherwise it is pushed onto the heap. [`pop`] and
/// [`peek`] take the smaller of the run's front and the heap's top, and
/// [`len`]/[`is_empty`] count both.
///
/// The pop order is the same as a single heap's. Every pending entry
/// carries a distinct `(at, seq)`: [`schedule`] ids are monotone and
/// never reuse a caller key, and `SimTransport`'s keys are message ids,
/// unique per message (the duplicate copy of a message fires at
/// `deliver_at + 1`, so it too has its own pair). The smaller head of a
/// sorted run and a min-heap is the least pending entry, so pops follow
/// that one total order whichever structure holds an entry. (A caller
/// that keys two pending entries with the same pair gets them in an
/// unspecified relative order, as a binary heap alone would give.)
///
/// A trace scheduled in time order (the service's arrivals) stays in the
/// run and costs O(1) per schedule and pop; the heap only holds what
/// arrives out of order, such as the steps a run loop schedules between
/// arrivals, so its `log n` sifts run over the active set rather than
/// the whole trace. In the worst case every entry arrives out of order
/// and goes to the heap, at a single heap's cost plus one comparison
/// per schedule and per pop.
///
/// [`pop`]: EventHeap::pop
/// [`peek`]: EventHeap::peek
/// [`len`]: EventHeap::len
/// [`is_empty`]: EventHeap::is_empty
/// [`schedule`]: EventHeap::schedule
pub struct EventHeap<E> {
    run: VecDeque<Scheduled<E>>,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> std::fmt::Debug for EventHeap<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHeap")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// An empty heap.
    pub fn new() -> Self {
        Self {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at virtual time `at` with the next internal
    /// sequence id. Returns the id assigned.
    pub fn schedule(&mut self, at: Time, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(Scheduled { at, seq, event });
        seq
    }

    /// Schedule `event` at `at` under the caller's own tie-break `key`
    /// (e.g. a transport message id). The internal counter is advanced
    /// past `key` so later [`schedule`](EventHeap::schedule) calls cannot
    /// collide with it.
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        self.next_seq = self.next_seq.max(key.saturating_add(1));
        self.push(Scheduled {
            at,
            seq: key,
            event,
        });
    }

    /// Append `entry` to the run when it keeps the run sorted, else
    /// push it onto the heap.
    fn push(&mut self, entry: Scheduled<E>) {
        match self.run.back() {
            Some(back) if (entry.at, entry.seq) < (back.at, back.seq) => {
                self.heap.push(Entry(entry))
            }
            _ => self.run.push_back(entry),
        }
    }

    /// True when the run's front is the earliest pending entry.
    fn run_leads(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => (r.at, r.seq) < (h.0.at, h.0.seq),
            (run, _) => run.is_some(),
        }
    }

    /// The `(at, seq)` of the earliest pending event, if any.
    pub fn peek(&self) -> Option<(Time, u64)> {
        if self.run_leads() {
            self.run.front().map(|r| (r.at, r.seq))
        } else {
            self.heap.peek().map(|e| (e.0.at, e.0.seq))
        }
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.run_leads() {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|e| e.0)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

/// Where a [`Process`] schedules follow-up events from inside a handler.
///
/// Both methods clamp to the present: an event aimed at the past fires
/// at *now* instead (after everything already queued for now, since its
/// sequence id is larger).
pub trait EventSink<E> {
    /// The current virtual time.
    fn now(&self) -> Time;

    /// Schedule `event` at absolute virtual time `at` (clamped to now).
    /// Returns the assigned sequence id.
    fn schedule_at(&mut self, at: Time, event: E) -> u64;

    /// Schedule `event` `delay` units from now.
    fn schedule_in(&mut self, delay: Time, event: E) -> u64 {
        let at = self.now().saturating_add(delay);
        self.schedule_at(at, event)
    }
}

/// A component driven by a [`Kernel`]: receives each due event together
/// with the (already-advanced) virtual time, and schedules follow-ups
/// through the sink.
pub trait Process<E> {
    /// The error a handler can abort the run with.
    type Error;

    /// Handle one event at virtual time `now`.
    fn handle(
        &mut self,
        now: Time,
        event: E,
        sink: &mut dyn EventSink<E>,
    ) -> Result<(), Self::Error>;
}

/// The sink view handed to a process while one event is in flight.
struct SinkView<'h, E> {
    heap: &'h mut EventHeap<E>,
    now: Time,
}

impl<E> EventSink<E> for SinkView<'_, E> {
    fn now(&self) -> Time {
        self.now
    }

    fn schedule_at(&mut self, at: Time, event: E) -> u64 {
        self.heap.schedule(at.max(self.now), event)
    }
}

/// The discrete-event run loop: a [`VirtualClock`] plus an [`EventHeap`],
/// popping events in `(deliver_at, seq_id)` order and dispatching them to
/// a [`Process`] until the heap quiesces.
#[derive(Debug, Default)]
pub struct Kernel<E> {
    clock: VirtualClock,
    heap: EventHeap<E>,
    processed: u64,
}

impl<E> Kernel<E> {
    /// A kernel at virtual time zero with an empty heap.
    pub fn new() -> Self {
        Self {
            clock: VirtualClock::new(),
            heap: EventHeap::new(),
            processed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap is empty — the run has quiesced.
    pub fn is_quiesced(&self) -> bool {
        self.heap.is_empty()
    }

    /// Seed an event before (or between) runs. Past times are clamped to
    /// the current clock. Returns the assigned sequence id.
    pub fn schedule_at(&mut self, at: Time, event: E) -> u64 {
        self.heap.schedule(at.max(self.clock.now()), event)
    }

    /// Pop and dispatch the earliest event. Returns `Ok(false)` when the
    /// heap was already empty.
    pub fn step<P: Process<E> + ?Sized>(&mut self, process: &mut P) -> Result<bool, P::Error> {
        let Some(Scheduled { at, event, .. }) = self.heap.pop() else {
            return Ok(false);
        };
        let now = self.clock.advance_to(at);
        self.processed += 1;
        let mut sink = SinkView {
            heap: &mut self.heap,
            now,
        };
        process.handle(now, event, &mut sink)?;
        Ok(true)
    }

    /// Run until the heap quiesces (or the process errors out).
    pub fn run<P: Process<E> + ?Sized>(&mut self, process: &mut P) -> Result<(), P::Error> {
        while self.step(process)? {}
        Ok(())
    }

    /// [`run`](Kernel::run), with dispatch telemetry. With a disabled
    /// recorder this *is* `run` plus one virtual call; with recording
    /// on, the loop flushes in blocks of [`RECORD_BLOCK`] events so the
    /// per-event cost stays a local increment:
    ///
    /// * counter `kernel.events` — events dispatched;
    /// * gauge `kernel.heap_depth` — pending events at the last flush;
    /// * histogram `kernel.heap_depth_dist` — pending events sampled at
    ///   each block boundary (deterministic: boundaries are event
    ///   counts, not clock reads);
    /// * histogram `kernel.dispatch_ns` — mean wall nanoseconds per
    ///   dispatch within each block (wall-derived, excluded from
    ///   deterministic comparisons per the obskit naming scheme);
    /// * span `kernel.run` on the kernel track covering the whole run
    ///   in virtual time.
    ///
    /// Telemetry is flushed even when the process errors out, so a
    /// partial run still accounts for the events it dispatched.
    pub fn run_recorded<P: Process<E> + ?Sized>(
        &mut self,
        process: &mut P,
        recorder: &dyn Recorder,
    ) -> Result<(), P::Error> {
        if !recorder.enabled() {
            return self.run(process);
        }
        let start_us = self.clock.now();
        let mut in_block = 0u64;
        let mut block_wall = std::time::Instant::now();
        let result = loop {
            match self.step(process) {
                Ok(true) => {
                    in_block += 1;
                    if in_block == RECORD_BLOCK {
                        self.flush_block(recorder, in_block, &mut block_wall);
                        in_block = 0;
                    }
                }
                Ok(false) => break Ok(()),
                Err(err) => break Err(err),
            }
        };
        if in_block > 0 {
            self.flush_block(recorder, in_block, &mut block_wall);
        }
        recorder.span(
            Track::kernel(),
            "kernel.run",
            start_us,
            self.clock.now().saturating_sub(start_us),
        );
        result
    }

    /// Emit one block's worth of dispatch telemetry and restart the
    /// block's wall-clock measurement.
    fn flush_block(
        &self,
        recorder: &dyn Recorder,
        events: u64,
        block_wall: &mut std::time::Instant,
    ) {
        let elapsed_ns = u64::try_from(block_wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        *block_wall = std::time::Instant::now();
        recorder.counter_add("kernel.events", events);
        recorder.gauge_set("kernel.heap_depth", self.heap.len() as i64);
        recorder.histogram_record("kernel.heap_depth_dist", self.heap.len() as u64);
        recorder.histogram_record("kernel.dispatch_ns", elapsed_ns / events.max(1));
    }
}

/// Telemetry flush granularity for [`Kernel::run_recorded`]: counters
/// and histograms are touched once per this many dispatched events.
pub const RECORD_BLOCK: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance_to(10), 10);
        assert_eq!(c.advance_to(5), 10, "past target is a no-op");
        assert_eq!(c.advance(3), 13);
    }

    #[test]
    fn heap_pops_by_time_then_sequence() {
        let mut h = EventHeap::new();
        h.schedule(5, "late");
        h.schedule(1, "first-at-1");
        h.schedule(1, "second-at-1");
        h.schedule(0, "earliest");
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).map(|s| s.event).collect();
        assert_eq!(order, ["earliest", "first-at-1", "second-at-1", "late"]);
    }

    #[test]
    fn keyed_scheduling_sorts_same_instant_events_by_key() {
        let mut h = EventHeap::new();
        // Keys arrive out of order; same deliver_at → key order wins.
        h.schedule_keyed(2, 7, "seven");
        h.schedule_keyed(2, 3, "three");
        h.schedule_keyed(1, 9, "nine-early");
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).map(|s| s.event).collect();
        assert_eq!(order, ["nine-early", "three", "seven"]);
        // Internal ids continue past the largest caller key.
        assert_eq!(h.schedule(0, "next"), 10);
    }

    /// SplitMix64: a seeded stream for the property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The reference queue: the pending entries, popped by a plain sort
    /// on `(at, seq)`.
    #[derive(Default)]
    struct Reference {
        pending: Vec<(Time, u64, u32)>,
        next_seq: u64,
    }

    impl Reference {
        fn schedule(&mut self, at: Time, event: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq, event));
            seq
        }

        fn schedule_keyed(&mut self, at: Time, key: u64, event: u32) {
            self.next_seq = self.next_seq.max(key + 1);
            self.pending.push((at, key, event));
        }

        fn holds(&self, at: Time, seq: u64) -> bool {
            self.pending.iter().any(|&(a, s, _)| (a, s) == (at, seq))
        }

        fn pop(&mut self) -> Option<(Time, u64, u32)> {
            self.pending.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            (!self.pending.is_empty()).then(|| self.pending.remove(0))
        }

        fn peek(&self) -> Option<(Time, u64)> {
            self.pending.iter().map(|&(at, seq, _)| (at, seq)).min()
        }
    }

    fn assert_agrees(heap: &EventHeap<u32>, reference: &Reference) {
        assert_eq!(heap.peek(), reference.peek());
        assert_eq!(heap.len(), reference.pending.len());
        assert_eq!(heap.is_empty(), reference.pending.is_empty());
    }

    #[test]
    fn run_and_heap_pop_in_reference_order() {
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut heap = EventHeap::new();
            let mut reference = Reference::default();
            let mut tail: Time = 0;
            let mut event = 0u32;
            for _ in 0..400 {
                match rng.below(6) {
                    // An in-order burst with same-instant ties: lands in
                    // the run while the run's tail allows it.
                    0 | 1 => {
                        for _ in 0..1 + rng.below(8) {
                            tail += rng.below(3);
                            event += 1;
                            let seq = heap.schedule(tail, event);
                            assert_eq!(seq, reference.schedule(tail, event));
                            assert_agrees(&heap, &reference);
                        }
                    }
                    // Anywhere up to the tail: mostly below the run's
                    // last entry, so into the heap.
                    2 => {
                        let at = rng.below(tail + 1);
                        event += 1;
                        let seq = heap.schedule(at, event);
                        assert_eq!(seq, reference.schedule(at, event));
                    }
                    // A caller key below or above the internal counter,
                    // on a pair nothing pending holds.
                    3 => {
                        let at = rng.below(tail + 2);
                        let key = if rng.below(2) == 0 {
                            rng.below(reference.next_seq + 1)
                        } else {
                            reference.next_seq + rng.below(4)
                        };
                        if !reference.holds(at, key) {
                            event += 1;
                            heap.schedule_keyed(at, key, event);
                            reference.schedule_keyed(at, key, event);
                        }
                    }
                    // Drain a few.
                    _ => {
                        for _ in 0..1 + rng.below(6) {
                            let got = heap.pop().map(|e| (e.at, e.seq, e.event));
                            assert_eq!(got, reference.pop(), "seed {seed}");
                            assert_agrees(&heap, &reference);
                        }
                    }
                }
                assert_agrees(&heap, &reference);
            }
            while let Some(want) = reference.pop() {
                let got = heap.pop().map(|e| (e.at, e.seq, e.event));
                assert_eq!(got, Some(want), "seed {seed}");
                assert_agrees(&heap, &reference);
            }
            assert!(heap.pop().is_none());
        }
    }

    #[test]
    fn kernel_clamps_to_now_in_reference_order() {
        /// Each handled event schedules up to two children: in the past
        /// (clamped to now), at now (a tie) or ahead. The same rule
        /// drives the reference.
        fn children(event: u32, now: Time) -> Vec<(Time, u32)> {
            if event >= 3000 {
                return Vec::new();
            }
            let mut rng = Rng(u64::from(event));
            (1..=rng.below(3) as u32)
                .map(|k| {
                    let at = match rng.below(3) {
                        0 => now.saturating_sub(rng.below(5)),
                        1 => now,
                        _ => now + rng.below(20),
                    };
                    (at, event * 2 + k)
                })
                .collect()
        }

        struct Tree {
            seen: Vec<(Time, u32)>,
        }
        impl Process<u32> for Tree {
            type Error = std::convert::Infallible;
            fn handle(
                &mut self,
                now: Time,
                event: u32,
                sink: &mut dyn EventSink<u32>,
            ) -> Result<(), Self::Error> {
                self.seen.push((now, event));
                for (at, child) in children(event, now) {
                    sink.schedule_at(at, child);
                }
                Ok(())
            }
        }

        for seed in 0..16u64 {
            let mut rng = Rng(seed);
            let mut kernel = Kernel::new();
            let mut process = Tree { seen: Vec::new() };
            let mut reference = Reference::default();
            let mut now: Time = 0;
            let mut expected = Vec::new();
            // Seeds in time order (the run), then a few out of order.
            for root in 0..40u32 {
                let at = u64::from(root) * 3;
                kernel.schedule_at(at, root);
                reference.schedule(at, root);
            }
            for root in 40..48u32 {
                let at = rng.below(120);
                kernel.schedule_at(at, root);
                reference.schedule(at, root);
            }
            let mut outside = 1_000_000u32;
            loop {
                // Between steps, seed from outside: clamped to the clock.
                if rng.below(8) == 0 {
                    let at = now.saturating_sub(5) + rng.below(10);
                    outside += 1;
                    kernel.schedule_at(at, outside);
                    reference.schedule(at.max(now), outside);
                }
                assert_eq!(kernel.pending(), reference.pending.len());
                assert_eq!(kernel.is_quiesced(), reference.pending.is_empty());
                let Some((at, _, event)) = reference.pop() else {
                    break;
                };
                now = now.max(at);
                expected.push((now, event));
                for (at, child) in children(event, now) {
                    reference.schedule(at.max(now), child);
                }
                assert!(kernel.step(&mut process).unwrap());
                assert_eq!(kernel.now(), now);
            }
            assert!(!kernel.step(&mut process).unwrap());
            assert_eq!(process.seen, expected, "seed {seed}");
        }
    }

    #[test]
    fn kernel_runs_to_quiescence_and_clamps_past_schedules() {
        struct Echo {
            seen: Vec<(Time, u32)>,
        }
        impl Process<u32> for Echo {
            type Error = std::convert::Infallible;
            fn handle(
                &mut self,
                now: Time,
                event: u32,
                sink: &mut dyn EventSink<u32>,
            ) -> Result<(), Self::Error> {
                self.seen.push((now, event));
                if event == 1 {
                    // Aimed at the past: fires at `now`, after anything
                    // already queued for `now`.
                    sink.schedule_at(0, 99);
                    sink.schedule_in(5, 42);
                }
                Ok(())
            }
        }
        let mut k = Kernel::new();
        k.schedule_at(10, 1);
        k.schedule_at(10, 2);
        let mut p = Echo { seen: Vec::new() };
        k.run(&mut p).unwrap();
        assert_eq!(p.seen, vec![(10, 1), (10, 2), (10, 99), (15, 42)]);
        assert!(k.is_quiesced());
        assert_eq!(k.processed(), 4);
        assert_eq!(k.now(), 15);
    }

    #[test]
    fn kernel_step_reports_empty_heap() {
        struct Nop;
        impl Process<()> for Nop {
            type Error = std::convert::Infallible;
            fn handle(
                &mut self,
                _: Time,
                _: (),
                _: &mut dyn EventSink<()>,
            ) -> Result<(), Self::Error> {
                Ok(())
            }
        }
        let mut k = Kernel::<()>::new();
        assert!(!k.step(&mut Nop).unwrap());
        k.schedule_at(1, ());
        assert!(k.step(&mut Nop).unwrap());
        assert!(k.is_quiesced());
    }

    #[test]
    fn recorded_run_matches_plain_run_and_counts_events() {
        use obskit::{NoopRecorder, Recorder, Registry};

        struct Chain {
            seen: Vec<(Time, u32)>,
        }
        impl Process<u32> for Chain {
            type Error = std::convert::Infallible;
            fn handle(
                &mut self,
                now: Time,
                event: u32,
                sink: &mut dyn EventSink<u32>,
            ) -> Result<(), Self::Error> {
                self.seen.push((now, event));
                if event > 0 {
                    sink.schedule_in(3, event - 1);
                }
                Ok(())
            }
        }

        let run = |recorder: &dyn Recorder| {
            let mut k = Kernel::new();
            k.schedule_at(1, 5u32);
            k.schedule_at(1, 2u32);
            let mut p = Chain { seen: Vec::new() };
            k.run_recorded(&mut p, recorder).unwrap();
            (p.seen, k.processed())
        };

        let (plain, plain_n) = run(&NoopRecorder);
        let registry = Registry::new();
        let (recorded, recorded_n) = run(&registry);
        assert_eq!(plain, recorded, "recording must not change the schedule");
        assert_eq!(plain_n, recorded_n);

        let snap = registry.snapshot();
        let events = snap
            .counters
            .iter()
            .find(|(name, _)| name == "kernel.events")
            .map(|(_, v)| *v);
        assert_eq!(events, Some(recorded_n), "flushed counter covers the tail");
        assert_eq!(snap.spans, 1, "one kernel.run span per run");
    }

    #[test]
    fn process_errors_abort_the_run() {
        struct Fail;
        impl Process<u8> for Fail {
            type Error = &'static str;
            fn handle(
                &mut self,
                _: Time,
                event: u8,
                _: &mut dyn EventSink<u8>,
            ) -> Result<(), Self::Error> {
                if event == 2 {
                    Err("boom")
                } else {
                    Ok(())
                }
            }
        }
        let mut k = Kernel::new();
        k.schedule_at(1, 1u8);
        k.schedule_at(2, 2u8);
        k.schedule_at(3, 3u8);
        assert_eq!(k.run(&mut Fail), Err("boom"));
        assert_eq!(k.pending(), 1, "the event after the error stays queued");
    }
}
