//! # simkit — the seeded discrete-event kernel
//!
//! Everything in this workspace that pretends to be "time" — cluster job
//! arrivals, region enter/exit events, node churn, network message
//! delivery — runs on the same three pieces:
//!
//! * [`VirtualClock`] — a monotone `u64` virtual timestamp. The unit is
//!   the *caller's* choice (the cluster service uses microseconds, the
//!   net fabric uses ticks); the kernel only requires monotonicity.
//! * [`EventHeap`] — a binary min-heap of typed events ordered by
//!   `(deliver_at, seq_id)`. The sequence id breaks same-instant ties
//!   deterministically: events scheduled earlier fire earlier. This is
//!   the exact rule `rrl::net::SimTransport` has used since PR 6 (there
//!   the tie-break key is the monotone message id, threaded in via
//!   [`EventHeap::schedule_keyed`]).
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
use std::collections::BinaryHeap;

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

/// A time-ordered event heap with deterministic `(deliver_at, seq_id)`
/// tie-breaking.
///
/// [`schedule`](EventHeap::schedule) assigns monotone internal sequence
/// ids (same-instant events fire in scheduling order);
/// [`schedule_keyed`](EventHeap::schedule_keyed) lets a component supply
/// its own tie-break key — `SimTransport` threads its monotone message id
/// through so same-tick deliveries sort by message id, exactly as the
/// pre-kernel transport did. The internal counter is bumped past every
/// caller key, so the two schemes never collide on one heap.
pub struct EventHeap<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> std::fmt::Debug for EventHeap<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHeap")
            .field("pending", &self.heap.len())
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
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at virtual time `at` with the next internal
    /// sequence id. Returns the id assigned.
    pub fn schedule(&mut self, at: Time, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry(Scheduled { at, seq, event }));
        seq
    }

    /// Schedule `event` at `at` under the caller's own tie-break `key`
    /// (e.g. a transport message id). The internal counter is advanced
    /// past `key` so later [`schedule`](EventHeap::schedule) calls cannot
    /// collide with it.
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        self.next_seq = self.next_seq.max(key.saturating_add(1));
        self.heap.push(Entry(Scheduled {
            at,
            seq: key,
            event,
        }));
    }

    /// The `(at, seq)` of the earliest pending event, if any.
    pub fn peek(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|e| (e.0.at, e.0.seq))
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
