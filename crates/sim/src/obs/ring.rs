//! The preallocated typed event ring.
//!
//! A circular buffer of [`TimedEvent`]s with all storage allocated at
//! construction: pushing is a bounds-checked store plus an index
//! wrap — never an allocation — which is what lets the runtime leave
//! tracing threaded through its hot paths.

use super::event::TimedEvent;

/// Fixed-capacity circular buffer of recent events, oldest evicted
/// first.
///
/// Capacity 0 is the disabled ring: pushes are a single branch.
///
/// ```
/// use lp_sim::obs::{Event, EventRing, TimedEvent};
/// use lp_sim::SimTime;
///
/// let mut ring = EventRing::new(2);
/// for i in 0..3 {
///     ring.push(TimedEvent {
///         at: SimTime::from_nanos(i),
///         ev: Event::Marker { code: i as u32 },
///     });
/// }
/// let codes: Vec<u32> = ring
///     .iter()
///     .map(|t| match t.ev { Event::Marker { code } => code, _ => unreachable!() })
///     .collect();
/// assert_eq!(codes, [1, 2]); // marker 0 was evicted
/// assert_eq!(ring.overwritten(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TimedEvent>,
    capacity: usize,
    /// Index of the oldest record once the buffer is full (also the
    /// next slot to overwrite).
    head: usize,
    overwritten: u64,
}

impl EventRing {
    /// A ring holding the last `capacity` events. All storage is
    /// reserved up front; capacity 0 records nothing.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            overwritten: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full. Never
    /// allocates: the buffer was reserved in [`new`](Self::new).
    #[inline]
    pub fn push(&mut self, te: TimedEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(te);
        } else {
            self.buf[self.head] = te;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        // Once full, `head` points at the oldest record: entries from
        // `head` on are older than the wrapped-around prefix.
        let (newer, older) = self.buf.split_at(self.head.min(self.buf.len()));
        older.iter().chain(newer.iter())
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drains the ring into a vector, oldest first.
    pub fn take(&mut self) -> Vec<TimedEvent> {
        let out: Vec<TimedEvent> = self.iter().copied().collect();
        self.buf.clear();
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Event;
    use crate::time::SimTime;

    fn marker(i: u64) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_nanos(i),
            ev: Event::Marker { code: i as u32 },
        }
    }

    fn codes(ring: &EventRing) -> Vec<u32> {
        ring.iter()
            .map(|t| match t.ev {
                Event::Marker { code } => code,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = EventRing::new(4);
        for i in 0..4 {
            r.push(marker(i));
        }
        assert_eq!(codes(&r), [0, 1, 2, 3]);
        assert_eq!(r.overwritten(), 0);
        for i in 4..10 {
            r.push(marker(i));
        }
        assert_eq!(codes(&r), [6, 7, 8, 9]);
        assert_eq!(r.overwritten(), 6);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = EventRing::new(8);
        let cap_before = r.buf.capacity();
        let ptr_before = r.buf.as_ptr();
        for i in 0..1_000 {
            r.push(marker(i));
        }
        assert_eq!(r.buf.capacity(), cap_before);
        assert_eq!(r.buf.as_ptr(), ptr_before, "buffer must never move");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut r = EventRing::new(0);
        r.push(marker(1));
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.take(), vec![]);
    }

    #[test]
    fn take_drains_in_order() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(marker(i));
        }
        let drained = r.take();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].ev, Event::Marker { code: 2 });
        assert_eq!(drained[2].ev, Event::Marker { code: 4 });
        assert!(r.is_empty());
        // Reusable after take.
        r.push(marker(9));
        assert_eq!(codes(&r), [9]);
    }
}
