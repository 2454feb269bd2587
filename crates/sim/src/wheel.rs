//! The hierarchical timing-wheel core of [`crate::EventQueue`], which
//! is also LibUtimer's timing wheel: slab-allocated event nodes filed
//! into cascading wheel levels, with a packed-`u128` binary heap as the
//! far-future overflow.
//!
//! # Geometry
//!
//! Four levels of 1024 slots each, at a 1 ns tick, filed by *shared
//! parent window*: an event lands at the lowest level `L` whose
//! enclosing `1024^(L+1)`-aligned window it shares with the cursor
//! (computed as one XOR + `leading_zeros` of `time ^ now`). Events
//! outside the cursor's `2^40` ns aligned block go to the overflow
//! heap. A flat bitmap keeps one occupancy bit per bucket.
//!
//! The wide radix is a deliberate trade: a 64-slot wheel needs seven
//! levels to span the same `2^40` ns horizon, so an event cascades
//! through nearly twice the levels on its way down (the dominant
//! drain cost — each refile is a dependent pointer chase). At 1024
//! slots the first *two* levels already cover a megatick (~1 ms), so
//! microsecond-scale event spreads — the common simulation regime —
//! pay at most one refile per event, and steady drains usually find
//! level 0 occupied and skip the advance machinery entirely. The
//! price is a 512-byte occupancy bitmap and a 16 KiB bucket-head
//! table instead of tens of bytes of each — cold slots, hot words.
//!
//! Same-parent filing buys a strict stratification the classic
//! delta-magnitude rule lacks: every level-0 entry precedes every
//! level-1 entry, which precedes every level-2 entry, and the whole
//! wheel precedes the whole heap. Within a level, slots are disjoint
//! consecutive windows and never wrap past the cursor. The earliest
//! live event is therefore always in the *lowest nonempty level's
//! first occupied bucket* — one `trailing_zeros`, no candidate floors,
//! no cross-level tie-breaking, no lap aliasing.
//!
//! # Determinism
//!
//! The total order is `(time, seq)` — exactly the packed-`u128` key
//! the old heap used — and [`TimerWheel::pop`] always returns the
//! globally smallest live entry under it. Each node records its `seq`
//! in its [`Cold`] record, but the hot paths never compare it: equal
//! times are always *co-bucketed* (filing depends only on the time and
//! the cursor, and cascades keep it current), and every bucket keeps
//! its equal-time nodes in ascending `seq` along its list. A plain
//! push takes the next `seq`, larger than every live one, so its O(1)
//! tail append keeps that order, and so do cascades and overflow pulls,
//! which refile in list or key order. A *reserved* push
//! ([`TimerWheel::reserve`], [`TimerWheel::push_reserved`]) files under
//! a `seq` taken earlier, so it walks its bucket and links in before
//! the first equal-time node with a larger `seq`, and takes over the
//! cached minimum on an equal-time tie with a lower `seq`. List order
//! among equal times therefore *is* seq order, ties across buckets
//! cannot exist, and strict `<` scans (first hit wins) recover the
//! exact `(time, seq)` minimum. The overflow heap, which has no list
//! order, keeps the full packed key. The pop order is *identical* to
//! the pure-heap implementation: byte-for-byte the same figures,
//! traces, and leaderboards (pinned by `tests/determinism.rs`, the
//! wheel-vs-naive proptest oracle, and the `wheel_oracle` differential
//! fuzzer).
//!
//! The one wrinkle is past-time pushes (times at or before the
//! cursor): they clamp *placement* into the cursor's own level-0
//! bucket while keeping the real time, so that bucket alone may mix
//! ticks. A `mixed` flag marks it; the minimum scan walks that one
//! bucket exactly, and everywhere else trusts bucket heads.
//!
//! # Cost model
//!
//! * `push`: freelist slab alloc + XOR/`leading_zeros` level pick + a
//!   tail append — O(1), no per-event allocation after warm-up. A
//!   reserved push whose ticket is no longer the newest `seq` walks its
//!   one bucket for its place instead.
//! * `cancel`: generation compare + intrusive unlink — O(1) even when
//!   the cancelled event *was* the cached minimum: a same-tick sibling
//!   takes over in place, or the cache degrades to a lazy lower bound
//!   that the next pop or peek resolves — the arm → cancel → re-arm
//!   loop never rescans occupancy.
//! * `pop`: unlink + an amortized minimum refresh: one advance to the
//!   first occupied bucket's window start cascades exactly that
//!   bucket, and the refile pass itself tracks the new minimum. A
//!   node refiles at most once per level over its whole life, so pops
//!   are amortized O(1).
//!
//! The cursor is allowed to run *ahead* of the last popped time, up to
//! (never past) the earliest live event, which is what lets the
//! minimum refresh cascade coarse buckets eagerly instead of walking
//! windows in place. Correctness does not depend on where the cursor
//! sits: times are exact, and a push behind the cursor takes the
//! clamped-placement path above.
//!
//! # Layout
//!
//! Per-node state is split by temperature: the 16-byte [`Link`]
//! records (time + list links — exactly what cascades touch) pack four
//! per cache line in one slab; the residency/generation word and the
//! payload fuse into one parallel [`Cold`] record, so the
//! random-index accesses of a pop or cancel land on one cold cache
//! line per node instead of two. A wheel node's bucket
//! is never stored — it is derived from `(now, time)`, which cascades
//! keep exact. The cursor, cached minimum, and occupancy bitmap share
//! one 64-byte aligned [`Hot`] block.

use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// log2 of the per-level slot count.
const SLOT_BITS: u32 = 10;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels below the overflow heap.
const LEVELS: usize = 4;
/// Total bucket count across all levels.
const BUCKETS: usize = LEVELS * SLOTS;
/// `u64` words in the flat per-bucket occupancy bitmap.
const OCC_WORDS: usize = BUCKETS / 64;
/// `OCC_WORDS` per single level.
const LEVEL_WORDS: usize = SLOTS / 64;
/// Span of one top-level aligned block: `1024^4 = 2^40` ns (≈ 18 min).
/// Events outside the cursor's block overflow to the heap; a cursor at
/// a block start therefore keeps the next `HORIZON` ns on the wheel.
pub(crate) const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Null link in the intrusive bucket lists and the freelist.
const NIL: u32 = u32::MAX;

/// Residency tag (low bits of a node's `meta` word): in a wheel bucket.
const TAG_WHEEL: u32 = 0;
/// Residency tag: in the overflow heap.
const TAG_HEAP: u32 = 1;
/// Residency tag: on the freelist.
const TAG_FREE: u32 = 2;
/// Mask selecting the residency tag inside a `meta` word; the
/// generation lives in the bits above ([`GEN_ONE`] is one bump).
const TAG_MASK: u32 = 3;
/// The generation increment: one free, expressed in `meta` units.
const GEN_ONE: u32 = 4;

/// The hot half of a slab node: exactly what the wheel machinery reads
/// while filing and cascading. 16 bytes — four per cache line, never
/// straddling one — so a cascade touches a single dense line per
/// refile and drags no payload, no sequence word, and no bookkeeping
/// through the cache. A wheel node's *bucket* is not stored either: it
/// is a pure function of `(now, time)` (cascades refile exactly the
/// buckets whose mapping a cursor move changes, so the mapping is
/// always current), and the residency/generation bookkeeping — written
/// only at push and free, never on a refile — lives in the parallel
/// [`Cold`] slab. Wheel residents sit on a circular doubly-linked bucket list
/// (`head.prev` is the tail, giving O(1) tail appends); freed nodes
/// thread the freelist through `next`.
struct Link {
    /// The event's timestamp in ns. Seq order among equal times is the
    /// bucket list order.
    time: u64,
    /// Intrusive circular bucket list (freelist reuses `next`).
    prev: u32,
    next: u32,
}

/// The cold half of a slab node: the residency/generation word, the
/// sequence number and the event payload, parallel to [`Link`]. Fused
/// into one record so the random-index accesses a pop or cancel makes
/// — liveness check, payload take, generation bump — land on a single
/// cache line per node instead of one line per array. Cascades never
/// touch this.
struct Cold<E> {
    /// Generation (upper 30 bits — a handle is live iff its generation
    /// matches) packed with the residency tag (low 2 bits). One load
    /// answers both "is this handle stale?" and "wheel, heap, or
    /// free?"; one add retires the node. Written only at
    /// push/free/heap-migrate.
    meta: u32,
    /// The tie-break half of the node's `(time, seq)` key. Read only
    /// when a reserved push ties with residents at its time; list order
    /// carries it everywhere else.
    seq: u64,
    /// The payload; `None` while the node is free (destructor-free
    /// payloads may linger, see [`TimerWheel::drop_event`]).
    event: Option<E>,
}

/// An overflow-heap entry: the full `(time << 64) | seq` key (the heap
/// has no list order to lean on) plus enough to validate liveness
/// against the slab without touching the payload.
struct HeapEntry {
    key: u128,
    node: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key surfaces.
        other.key.cmp(&self.key)
    }
}

/// A cached reference to the wheel-resident minimum, in one of two
/// states keyed off `node`:
///
/// * `node != NIL`: *exact* — `node` is the earliest live wheel
///   resident (lowest seq among equal times) and `bucket` is where it
///   sits, so a pop (or a cancel of the minimum) unlinks without
///   re-deriving the filing map.
/// * `node == NIL`: *lazy* — no node is cached, but `time` is a
///   certified lower bound on every live wheel time (`u64::MAX` when
///   the wheel part is known empty). Cancelling the minimum leaves
///   this state behind instead of rescanning: the next pop (or a
///   `&self` peek) resolves it, and a push strictly below the bound
///   restores exactness for free. This is what makes the arm → cancel
///   → re-arm loop O(1) per cycle with no occupancy scan at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Min {
    time: u64,
    node: u32,
    bucket: u16,
}

/// The lazy state with a vacuous bound — the initial state and the
/// result of a refresh that found the wheel part empty. (A `u64::MAX`
/// *time* is a legal timestamp; only the [`NIL`] node marks the state.)
const NO_MIN: Min = Min {
    time: u64::MAX,
    node: NIL,
    bucket: 0,
};

/// The cursor cacheline: everything the per-event hot path reads
/// first, aligned so it never false-shares with the slab or bucket
/// tables. The cursor, cached minimum, and last-armed cache lead the
/// first 64-byte line; the occupancy bitmap (64 words, indexed flat
/// by bucket) follows.
#[repr(align(64))]
struct Hot {
    /// The cursor tick. Monotone; may run ahead of the last popped
    /// time but never past the earliest live event (see module docs).
    now: u64,
    /// The cached wheel minimum — exact or a lazy lower bound, see
    /// [`Min`]. Because the heap holds only future blocks, an exact
    /// `wmin` is the *global* minimum.
    wmin: Min,
    /// The most recently pushed wheel resident and the bucket it was
    /// filed into — the arm → cancel → re-arm loop always cancels
    /// exactly this node, and the cached bucket saves re-deriving the
    /// filing map. Sound because only a cursor move (which clears
    /// this) re-files residents, and a freed node is unreachable
    /// through any handle until a re-push — which overwrites this.
    cand: Min,
    /// Set when past-time pushes clamped into the cursor's level-0
    /// bucket, which then mixes ticks and needs a real walk (the only
    /// bucket that ever does). Cleared whenever the cursor moves: a
    /// clamped entry is always the minimum, so the cursor cannot pass
    /// one while it lives.
    mixed: bool,
    /// One occupancy bit per bucket, indexed `bucket / 64`:`bucket %
    /// 64` — level `L` owns words `16L..16L+16`. Stratification keeps
    /// every set bit at or beyond the cursor's slot, so the nearest
    /// occupied slot in a level is the first set bit of its words.
    occ: [u64; OCC_WORDS],
}

/// The shared wheel engine. `EventQueue` is a thin facade over this;
/// see the module docs for geometry, cost model, and the determinism
/// argument.
pub(crate) struct TimerWheel<E> {
    hot: Hot,
    /// Head node index per bucket, indexed `level * 1024 + slot`.
    buckets: [u32; BUCKETS],
    /// The hot node slab. Grows only when the freelist is empty.
    links: Vec<Link>,
    /// The cold node slab, parallel to `links`: residency/generation
    /// word fused with the payload (see [`Cold`]); touched only at
    /// push/cancel/pop, never by cascades.
    cold: Vec<Cold<E>>,
    /// Head of the freelist threaded through `Link::next`.
    free_head: u32,
    /// Far-future overflow, min-key at the top. Invariants: the top is
    /// always live (dead tops are drained by the op that killed them),
    /// and every entry's time lies in a block strictly after `now`'s.
    heap: BinaryHeap<HeapEntry>,
    /// Cancelled entries still buried in the heap.
    heap_dead: usize,
    /// Live (scheduled, not cancelled, not fired) events.
    live: usize,
    /// The next sequence number — the tie-break half of the total
    /// order. Taken by every push and every [`Self::reserve`].
    next_seq: u64,
}

impl<E> fmt::Debug for TimerWheel<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("now", &self.hot.now)
            .field("live", &self.live)
            .field("slab", &self.links.len())
            .field("heap", &self.heap.len())
            .finish()
    }
}

/// The bucket (as `level * 1024 + slot`) for an event at tick `eff`
/// under same-parent-window filing. The caller must have established
/// `now ^ eff < HORIZON` (same aligned `2^40` block) and `eff >= now`.
#[inline]
fn wheel_bucket(now: u64, eff: u64) -> u16 {
    let x = now ^ eff;
    debug_assert!(x < HORIZON, "filing outside the cursor's block");
    // Highest differing bit picks the lowest level whose parent window
    // both ticks share; `| 1` makes the same-tick case level 0, slot
    // `now & 1023`, branch-free.
    let level = (63 - (x | 1).leading_zeros()) / SLOT_BITS;
    let slot = (eff >> (SLOT_BITS * level)) & (SLOTS as u64 - 1);
    (level as u16) << SLOT_BITS | slot as u16
}

impl<E> TimerWheel<E> {
    /// An empty wheel with the slab (and overflow heap) pre-sized for
    /// `capacity` concurrently scheduled events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            hot: Hot {
                now: 0,
                wmin: NO_MIN,
                cand: NO_MIN,
                mixed: false,
                occ: [0; OCC_WORDS],
            },
            buckets: [NIL; BUCKETS],
            links: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            free_head: NIL,
            heap: BinaryHeap::with_capacity(capacity),
            heap_dead: 0,
            live: 0,
            next_seq: 0,
        }
    }

    /// Live (scheduled, not cancelled) events. O(1).
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    /// Live events plus not-yet-drained cancelled heap entries — an
    /// upper bound on tracked entries, mirroring the old heap's lazy
    /// count.
    #[cfg(test)]
    pub(crate) fn len_upper_bound(&self) -> usize {
        self.live + self.heap_dead
    }

    /// Slab length: the high-water mark of concurrently scheduled
    /// events (freed nodes are reused, never released).
    pub(crate) fn slab_len(&self) -> usize {
        self.links.len()
    }

    /// `true` when no live events remain. O(1), non-mutating.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The timestamp of the earliest live event. Non-mutating: an
    /// exact cached minimum answers directly (it precedes everything
    /// in the heap by the block invariant); a lazy cache falls back to
    /// a read-only scan — stratification puts the wheel minimum in the
    /// lowest nonempty level's first occupied bucket, walked in place
    /// without moving the cursor — and only an empty wheel consults
    /// the (kept-live) heap top.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if self.hot.wmin.node != NIL {
            return Some(SimTime::from_nanos(self.hot.wmin.time));
        }
        for level in 0..LEVELS {
            let Some(slot) = self.first_occupied(level) else {
                continue;
            };
            let bi = level << SLOT_BITS | slot;
            let head = self.buckets[bi];
            // Level-0 buckets hold a single tick (unless tick-mixing,
            // which only the cursor's own bucket can be), so the head
            // answers; coarser buckets span many ticks and need the
            // walk. Slot order within a level is time order, so the
            // first occupied bucket of the lowest level is the one.
            if level == 0 && !(self.hot.mixed && slot as u64 == self.hot.now & (SLOTS as u64 - 1)) {
                return Some(SimTime::from_nanos(self.links[head as usize].time));
            }
            let mut best = self.links[head as usize].time;
            let mut cur = self.links[head as usize].next;
            while cur != head {
                let n = &self.links[cur as usize];
                if n.time < best {
                    best = n.time;
                }
                cur = n.next;
            }
            return Some(SimTime::from_nanos(best));
        }
        let top = self.heap.peek()?;
        Some(SimTime::from_nanos((top.key >> 64) as u64))
    }

    /// Schedules `event` at `time`; returns the `(node, generation)`
    /// pair the caller packs into its handle type.
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, event: E) -> (u32, u32) {
        let seq = self.reserve();
        self.push_reserved(time, seq, event)
    }

    /// Takes the next sequence number exactly as a [`Self::push`] would,
    /// for a later [`Self::push_reserved`].
    #[inline]
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time` under `seq`, a number taken by
    /// [`Self::reserve`] and not yet used: it pops exactly where a push
    /// made at the reservation would have. A plain push is the case
    /// where nothing was numbered after `seq`.
    pub(crate) fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) -> (u32, u32) {
        debug_assert!(seq < self.next_seq, "sequence number never reserved");
        let t = time.as_nanos();
        let (node, gen) = self.alloc(t, seq, event);
        self.live += 1;
        let now = self.hot.now;
        let b = if t < now {
            // Behind the cursor: clamp placement into the cursor's own
            // level-0 bucket (keeping the real time) and mark it
            // tick-mixing.
            self.hot.mixed = true;
            (now & (SLOTS as u64 - 1)) as u16
        } else if (t ^ now) < HORIZON {
            wheel_bucket(now, t)
        } else {
            // Far future: overflow to the heap with the full packed
            // key. Heap residents never beat the cached wheel minimum.
            self.cold[node as usize].meta = gen << 2 | TAG_HEAP;
            let key = ((t as u128) << 64) | seq as u128;
            self.heap.push(HeapEntry { key, node, gen });
            return (node, gen);
        };
        if seq + 1 == self.next_seq {
            // Nothing was numbered after `seq`, so every resident has a
            // lower one: append at the tail.
            self.link_tail(node, b);
        } else {
            self.link_by_seq(node, b, t, seq);
        }
        self.hot.cand = Min {
            time: t,
            node,
            bucket: b,
        };
        // Strict `<` on time: an equal-time push steals the minimum only
        // with a lower seq, which only a reserved push can have. The
        // same compare re-arms a *lazy* cache — `wmin.time` is then a
        // lower bound on every resident, so a strictly smaller push is
        // the unique new minimum, and a tie leaves the bound valid. (A
        // `u64::MAX` push into an empty wheel stays lazy; peek's scan
        // finds it.)
        let m = self.hot.wmin;
        if t < m.time || (t == m.time && m.node != NIL && seq < self.cold[m.node as usize].seq) {
            self.hot.wmin = Min {
                time: t,
                node,
                bucket: b,
            };
        }
        (node, gen)
    }

    /// Cancels the event owning `(node, gen)`; a stale pair (already
    /// fired or cancelled) is a no-op. O(1) unconditionally: even when
    /// the cached minimum itself dies there is no rescan — a same-tick
    /// sibling takes over in place when one exists, and otherwise the
    /// cache degrades to a lazy lower bound (see [`Min`]) that the
    /// next pop or peek resolves. Heap residents die by generation
    /// bump and drain lazily.
    pub(crate) fn cancel(&mut self, node: u32, gen: u32) {
        let Some(c) = self.cold.get(node as usize) else {
            return;
        };
        let m = c.meta;
        if m >> 2 != gen {
            return;
        }
        let tag = m & TAG_MASK;
        if tag == TAG_WHEEL {
            if self.hot.wmin.node == node {
                let Min { time, bucket, .. } = self.hot.wmin;
                self.unlink(node, bucket as usize);
                self.drop_event(node);
                self.free(node, m);
                self.live -= 1;
                self.hot.wmin = self.succeed_min(time, bucket);
            } else if self.hot.cand.node == node {
                // The most recently armed event — the cancel the
                // re-arm loop issues every cycle. Its bucket was
                // cached at push and no cursor move invalidated it.
                let bi = self.hot.cand.bucket as usize;
                self.hot.cand.node = NIL;
                self.unlink(node, bi);
                self.drop_event(node);
                self.free(node, m);
                self.live -= 1;
            } else {
                let bi = self.resident_bucket(node);
                self.unlink(node, bi);
                self.drop_event(node);
                self.free(node, m);
                self.live -= 1;
            }
        } else if tag == TAG_HEAP {
            self.heap_dead += 1;
            self.drop_event(node);
            self.free(node, m);
            self.drain_dead_heap_top();
            self.live -= 1;
        }
        // TAG_FREE: the handle generation matched a freed node mid-wrap;
        // treat as stale.
    }

    /// Removes and returns the earliest live event and restores an
    /// exact cached minimum — in place when a same-tick sibling
    /// remains, otherwise by a refresh (advancing the cursor only as
    /// far as the next live event requires).
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.live == 0 {
            return None;
        }
        if self.hot.wmin.node == NIL {
            // Lazy after a cancelled minimum, or every live event sits
            // in the overflow heap: recompute (the heap case advances
            // into the earliest occupied block, migrating it in).
            self.refresh_min();
        }
        let m = self.hot.wmin;
        debug_assert_ne!(m.node, NIL, "live events imply a wheel minimum");
        self.unlink(m.node, m.bucket as usize);
        let c = &mut self.cold[m.node as usize];
        let meta = c.meta;
        let event = c.event.take().expect("live node holds its event");
        self.free(m.node, meta);
        self.live -= 1;
        let next = self.succeed_min(m.time, m.bucket);
        if next.node != NIL {
            self.hot.wmin = next;
        } else {
            // The popped event was the global minimum, so the cursor
            // may legally catch up to its tick — which starts the
            // refresh's occupancy scans at the popped slot's word
            // instead of rescanning the drained words behind it. (A
            // live clamped entry would itself be the minimum, so
            // `m.time <= now` then and this is a no-op that keeps
            // `mixed` set.)
            self.advance_to(m.time);
            self.refresh_min();
        }
        Some((SimTime::from_nanos(m.time), event))
    }

    // -- slab ---------------------------------------------------------

    /// Allocates a slab node holding `(time, seq, event)` with a
    /// [`TAG_WHEEL`] residency (the far-future push path retags) and
    /// returns its generation.
    #[inline]
    fn alloc(&mut self, time: u64, seq: u64, event: E) -> (u32, u32) {
        if self.free_head != NIL {
            let node = self.free_head;
            let link = &mut self.links[node as usize];
            self.free_head = link.next;
            link.time = time;
            let c = &mut self.cold[node as usize];
            c.meta &= !TAG_MASK; // TAG_FREE -> TAG_WHEEL, generation kept
            let gen = c.meta >> 2;
            c.seq = seq;
            c.event = Some(event);
            (node, gen)
        } else {
            // The slab's only growth point: cold after warm-up (the
            // freelist feeds steady-state re-arm loops) and amortized
            // away entirely by `with_capacity` pre-sizing.
            let node = self.links.len() as u32;
            self.links.push(Link {
                time,
                prev: NIL,
                next: NIL,
            });
            self.cold.push(Cold {
                meta: TAG_WHEEL,
                seq,
                event: Some(event),
            });
            (node, 0)
        }
    }

    /// Releases a cancelled node's payload. Skipped entirely when `E`
    /// has no destructor: liveness is the meta generation, the stale
    /// value is unreachable through any handle, and the slot is
    /// overwritten at reuse — the only observable effect of clearing
    /// would be running `E::drop` early, which destructor-free types
    /// don't have. `Box`ed payloads and the like still release at
    /// cancel time.
    #[inline]
    fn drop_event(&mut self, node: u32) {
        if std::mem::needs_drop::<E>() {
            self.cold[node as usize].event = None;
        }
    }

    /// Returns a node (whose payload the caller already dropped or
    /// took) to the freelist. `m` is the node's current meta word —
    /// every caller just read it for a liveness check, so the
    /// generation bump is a pure store with no dependent reload.
    #[inline]
    fn free(&mut self, node: u32, m: u32) {
        // The generation bump is what retires every outstanding handle
        // (and any buried heap entry) in one compare. Wrapping: after
        // 2^30 reuses a handle may alias, the same contract as the old
        // slot table (scaled by the two tag bits).
        self.cold[node as usize].meta = (m & !TAG_MASK).wrapping_add(GEN_ONE) | TAG_FREE;
        self.links[node as usize].next = self.free_head;
        self.free_head = node;
    }

    // -- wheel filing -------------------------------------------------

    /// Refiles a node during a cascade or an overflow pull. Both stay
    /// inside the cursor's block — a cascaded bucket shares the old
    /// block and the cursor only moves within it here, and a pull
    /// stops at the block edge — so this never files outward to the
    /// heap. Tracks the minimum across the refile pass in-line: the
    /// refresh seeds `wmin` with the sentinel and a single advance
    /// leaves the exact new minimum behind, no separate bucket walk
    /// needed. (Strict `<` keeps the first equal-time node seen, which
    /// list order guarantees is the lowest seq.)
    #[inline]
    fn file(&mut self, node: u32) {
        let t = self.links[node as usize].time;
        debug_assert!(t >= self.hot.now, "refiled node behind the cursor");
        let b = wheel_bucket(self.hot.now, t);
        self.link_tail(node, b);
        if t < self.hot.wmin.time || self.hot.wmin.node == NIL {
            self.hot.wmin = Min {
                time: t,
                node,
                bucket: b,
            };
        }
    }

    /// Appends `node` at the tail of bucket `b`, preserving the
    /// sequence order that makes unmixed bucket heads minima.
    #[inline]
    fn link_tail(&mut self, node: u32, b: u16) {
        debug_assert!((b as usize) < BUCKETS);
        // The mask is a no-op (every caller files in range, asserted
        // above) but makes the index provably in-bounds, keeping panic
        // branches out of the hottest loops.
        let bi = b as usize & (BUCKETS - 1);
        let head = self.buckets[bi];
        if head == NIL {
            self.links[node as usize].prev = node;
            self.links[node as usize].next = node;
            self.buckets[bi] = node;
            self.hot.occ[bi >> 6] |= 1u64 << (bi & 63);
        } else {
            let tail = self.links[head as usize].prev;
            self.links[node as usize].prev = tail;
            self.links[node as usize].next = head;
            self.links[tail as usize].next = node;
            self.links[head as usize].prev = node;
        }
    }

    /// Links `node` (time `t`, sequence `seq`) into bucket `b` before
    /// the first resident of the same time with a larger `seq`, or at
    /// the tail when none has one — the one insert that is not a tail
    /// append, used by [`Self::push_reserved`]. Residents of other
    /// times keep their places: only equal-time order is an invariant.
    fn link_by_seq(&mut self, node: u32, b: u16, t: u64, seq: u64) {
        let bi = b as usize & (BUCKETS - 1); // in-bounds proof, see `link_tail`
        let head = self.buckets[bi];
        if head == NIL {
            self.link_tail(node, b);
            return;
        }
        let mut cur = head;
        loop {
            if self.links[cur as usize].time == t && self.cold[cur as usize].seq > seq {
                // Insert before `cur`.
                let prev = self.links[cur as usize].prev;
                self.links[node as usize].prev = prev;
                self.links[node as usize].next = cur;
                self.links[prev as usize].next = node;
                self.links[cur as usize].prev = node;
                if cur == head {
                    self.buckets[bi] = node;
                }
                return;
            }
            cur = self.links[cur as usize].next;
            if cur == head {
                self.link_tail(node, b);
                return;
            }
        }
    }

    /// The bucket a wheel-resident node currently sits in, *derived*
    /// rather than stored: for a clamped node (time behind the cursor)
    /// it is the cursor's own level-0 slot — clamped nodes never
    /// survive a cursor move, so the slot is current — and otherwise
    /// the filing map applies, which cascades keep exact for every
    /// resident (see [`Link`]).
    #[inline]
    fn resident_bucket(&self, node: u32) -> usize {
        let t = self.links[node as usize].time;
        let now = self.hot.now;
        if t < now {
            (now & (SLOTS as u64 - 1)) as usize
        } else {
            wheel_bucket(now, t) as usize
        }
    }

    /// Removes a wheel-resident node from bucket `bi` (the caller
    /// passes the cached minimum's bucket or [`Self::resident_bucket`]).
    #[inline]
    fn unlink(&mut self, node: u32, bi: usize) {
        debug_assert!(bi < BUCKETS);
        let bi = bi & (BUCKETS - 1); // in-bounds proof, see `link_tail`
        debug_assert_eq!(
            self.cold[node as usize].meta & TAG_MASK,
            TAG_WHEEL,
            "unlink of a node not on the wheel"
        );
        debug_assert_eq!(
            self.resident_bucket(node),
            bi,
            "stale bucket handed to unlink"
        );
        let n = &self.links[node as usize];
        let (prev, next) = (n.prev, n.next);
        if next == node {
            self.buckets[bi] = NIL;
            self.hot.occ[bi >> 6] &= !(1u64 << (bi & 63));
        } else {
            self.links[prev as usize].next = next;
            self.links[next as usize].prev = prev;
            if self.buckets[bi] == node {
                self.buckets[bi] = next;
            }
        }
    }

    // -- cursor / cascade ---------------------------------------------

    /// Moves the cursor forward to tick `t` (never backward), cascading
    /// the newly entered window at every level whose window changed and
    /// pulling the overflow heap on a block change.
    ///
    /// Sound only because callers never advance past the earliest live
    /// event, so every window strictly between the old and new cursor
    /// positions is empty, and no live clamped entry exists (it would
    /// *be* that earliest event) — which is why `mixed` resets here.
    fn advance_to(&mut self, t: u64) {
        let old = self.hot.now;
        if t <= old {
            return;
        }
        self.hot.now = t;
        self.hot.mixed = false;
        // A cursor move can re-file any resident, so the last-armed
        // bucket cache is no longer trustworthy.
        self.hot.cand.node = NIL;
        let x = old ^ t;
        let hi = (63 - (x | 1).leading_zeros()) / SLOT_BITS;
        if hi == 0 {
            return;
        }
        // Top-down so entries refile through at most one cascade per
        // advance. A freshly current slot at level L is never a filing
        // target while current (its entries would share a finer
        // window), so cascaded entries are never moved twice.
        for level in (1..=hi.min(LEVELS as u32 - 1)).rev() {
            let shift = SLOT_BITS * level;
            let slot = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
            self.cascade((level as usize) << SLOT_BITS | slot);
        }
        // Block rollover: heap entries of the newly entered block now
        // belong on the wheel.
        if hi >= LEVELS as u32 {
            self.pull_overflow();
        }
    }

    /// Empties bucket `b` — a window that just became current —
    /// refiling every node one or more levels down, in list order so
    /// per-tick sequence order survives.
    fn cascade(&mut self, b: usize) {
        debug_assert!(b < BUCKETS);
        let b = b & (BUCKETS - 1); // in-bounds proof, see `link_tail`
        let head = self.buckets[b];
        if head == NIL {
            return;
        }
        self.buckets[b] = NIL;
        self.hot.occ[b >> 6] &= !(1u64 << (b & 63));
        let mut cur = head;
        loop {
            let next = self.links[cur as usize].next;
            self.file(cur);
            if next == head {
                break;
            }
            cur = next;
        }
    }

    /// Drains heap entries whose time falls inside the cursor's block,
    /// refiling them as wheel nodes in key order (dead entries passed
    /// on the way out are dropped). Node indices and generations are
    /// stable across the move, so outstanding handles stay valid.
    fn pull_overflow(&mut self) {
        loop {
            let Some(top) = self.heap.peek() else { return };
            let (key, node, gen) = (top.key, top.node, top.gen);
            if self.cold[node as usize].meta != gen << 2 | TAG_HEAP {
                self.heap.pop();
                self.heap_dead -= 1;
                continue;
            }
            // Stop at the first entry of a later block (the same
            // predicate filing uses, so a migrated entry can never
            // bounce straight back to the heap).
            let t = (key >> 64) as u64;
            if (t ^ self.hot.now) >= HORIZON {
                return;
            }
            self.heap.pop();
            self.cold[node as usize].meta = gen << 2 | TAG_WHEEL;
            self.file(node);
        }
    }

    /// Re-establishes the "heap top is live" invariant.
    fn drain_dead_heap_top(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cold[top.node as usize].meta == top.gen << 2 | TAG_HEAP {
                return;
            }
            self.heap.pop();
            self.heap_dead -= 1;
        }
    }

    // -- cached minimum -----------------------------------------------

    /// The cached minimum's successor after its node (time `time`,
    /// bucket `bucket`) was unlinked, without any rescan. If the
    /// bucket still has residents and is a single-tick level-0 bucket,
    /// its new head is the next-lowest seq at the very same tick — the
    /// exact new minimum, since equal times are always co-bucketed and
    /// everything else was `>= time`. Otherwise the exact successor is
    /// unknown and the lazy state carries `time` forward as the lower
    /// bound (the dead minimum bounded every survivor from below).
    #[inline]
    fn succeed_min(&self, time: u64, bucket: u16) -> Min {
        debug_assert!((bucket as usize) < BUCKETS);
        let bi = bucket as usize & (BUCKETS - 1); // in-bounds proof
        let head = self.buckets[bi];
        if head != NIL
            && bi < SLOTS
            && !(self.hot.mixed && bi as u64 == self.hot.now & (SLOTS as u64 - 1))
        {
            debug_assert_eq!(
                self.links[head as usize].time, time,
                "level-0 bucket mixes ticks"
            );
            return Min {
                time,
                node: head,
                bucket,
            };
        }
        Min {
            time,
            node: NIL,
            bucket: 0,
        }
    }

    /// First occupied slot of `level`, or `None`. The bitmap words of
    /// a level are scanned low to high; stratification guarantees no
    /// set bit below the cursor's slot, so the first hit is nearest.
    #[inline]
    fn first_occupied(&self, level: usize) -> Option<usize> {
        let base = level * LEVEL_WORDS;
        // Stratification: no set bit exists below the cursor's slot at
        // any level, so the scan starts at the cursor's word.
        let cursor_slot = (self.hot.now >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
        for w in cursor_slot >> 6..LEVEL_WORDS {
            let word = self.hot.occ[base + w];
            if word != 0 {
                return Some(w << 6 | word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Recomputes `wmin` from scratch. By stratification the minimum is
    /// the head of the first occupied level-0 bucket when one exists
    /// (walked only if it is the cursor's own, tick-mixing bucket).
    /// Otherwise the lowest nonempty level's first occupied bucket
    /// holds the minimum, so one advance to that bucket's window start
    /// cascades *exactly that bucket* (every finer level is empty, and
    /// the window start stays at or before the earliest live event);
    /// [`TimerWheel::file`] tracks the minimum of everything the
    /// cascade refiles against the pre-seeded sentinel, leaving the
    /// exact new minimum behind with no separate walk. An empty wheel
    /// pulls the earliest heap block the same way: the pulled block's
    /// minimum is the global minimum and `file` catches it in flight.
    fn refresh_min(&mut self) {
        if let Some(slot) = self.first_occupied(0) {
            let head = self.buckets[slot];
            if self.hot.mixed && slot as u64 == self.hot.now & (SLOTS as u64 - 1) {
                // The one bucket that can mix ticks: walk it. Strict
                // `<` keeps the first equal-time node, i.e. lowest seq.
                let mut best = Min {
                    time: self.links[head as usize].time,
                    node: head,
                    bucket: slot as u16,
                };
                let mut cur = self.links[head as usize].next;
                while cur != head {
                    let n = &self.links[cur as usize];
                    if n.time < best.time {
                        best = Min {
                            time: n.time,
                            node: cur,
                            bucket: slot as u16,
                        };
                    }
                    cur = n.next;
                }
                self.hot.wmin = best;
            } else {
                self.hot.wmin = Min {
                    time: self.links[head as usize].time,
                    node: head,
                    bucket: slot as u16,
                };
            }
            return;
        }
        self.hot.wmin = NO_MIN;
        for level in 1..LEVELS {
            let Some(slot) = self.first_occupied(level) else {
                continue;
            };
            let slot = slot as u64;
            let shift = SLOT_BITS * level as u32;
            let parent = self.hot.now >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
            let window = parent + (slot << shift);
            debug_assert!(window > self.hot.now, "occupied window behind the cursor");
            self.advance_to(window);
            debug_assert_ne!(self.hot.wmin.node, NIL, "cascade left no minimum");
            return;
        }
        let Some(top) = self.heap.peek() else { return };
        let t = (top.key >> 64) as u64;
        let block = t & !(HORIZON - 1);
        debug_assert!(block > self.hot.now, "heap entry in the cursor's block");
        // Entering the block pulls its entries onto the wheel; `file`
        // tracks their minimum — the heap preceded nothing on the
        // (empty) wheel, so the pulled minimum is the global one.
        self.advance_to(block);
        debug_assert_ne!(self.hot.wmin.node, NIL, "pull left no minimum");
    }

    /// Test hook: forces a slab node's generation so wraparound
    /// aliasing is exercisable without 2^32 real reuses.
    #[cfg(test)]
    pub(crate) fn force_gen(&mut self, node: u32, gen: u32) {
        let m = &mut self.cold[node as usize].meta;
        *m = gen << 2 | (*m & TAG_MASK);
    }

    /// The largest representable generation (the wraparound boundary
    /// of the 30-bit generation field).
    #[cfg(test)]
    pub(crate) const MAX_GEN: u32 = u32::MAX >> 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(u64, E)> {
        let mut out = Vec::with_capacity(w.live_len());
        while let Some((at, e)) = w.pop() {
            out.push((at.as_nanos(), e));
        }
        out
    }

    #[test]
    fn filing_matches_shared_parent_window_geometry() {
        // From a cursor at zero, same-parent filing coincides with the
        // delta-magnitude rule...
        assert_eq!(wheel_bucket(0, 0), 0);
        assert_eq!(wheel_bucket(0, 1_023), 1_023);
        assert_eq!(wheel_bucket(0, 1_024), 1_024 + 1);
        assert_eq!(wheel_bucket(0, 1_048_575), 1_024 + 1_023);
        assert_eq!(wheel_bucket(0, 1_048_576), 2_048 + 1);
        assert_eq!(wheel_bucket(0, HORIZON - 1), 3 * 1_024 + 1_023);
        // ...but window *crossings* file by the shared parent, not the
        // delta: one tick ahead across a level-1 boundary is a level-1
        // placement, never an aliasing level-0 lap.
        assert_eq!(wheel_bucket(1_023, 1_024), 1_024 + 1);
        assert_eq!(wheel_bucket(1_048_575, 1_048_576), 2_048 + 1);
        // Same tick files at the cursor's own level-0 slot.
        assert_eq!(wheel_bucket(1_048_578, 1_048_578), 2);
    }

    #[test]
    fn pops_across_levels_in_key_order() {
        let mut w = TimerWheel::with_capacity(8);
        w.push(t(5), "l0");
        w.push(t(5_000), "l1");
        w.push(t(5_000_000), "l2");
        w.push(t(10_000_000_000), "l3");
        w.push(t(HORIZON + 5), "heap");
        let got = drain(&mut w);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], (5, "l0"));
        assert_eq!(got[4], (HORIZON + 5, "heap"));
        assert!(w.is_empty());
    }

    #[test]
    fn multi_level_cascade_preserves_order() {
        let mut w = TimerWheel::with_capacity(64);
        // A spread that forces every level to cascade at least once.
        let mut expect = Vec::with_capacity(40);
        for i in 0..40u64 {
            let at = (i * 7919) << (i % 30);
            w.push(t(at), i);
            expect.push((at, i));
        }
        expect.sort_unstable();
        let got = drain(&mut w);
        assert_eq!(got, expect);
    }

    #[test]
    fn past_times_pop_first_with_real_timestamps() {
        let mut w = TimerWheel::with_capacity(4);
        w.push(t(10_000), "future");
        let (_, _) = w.pop().expect("advance the cursor");
        // The cursor sits at 10_000 now; earlier times clamp into its
        // slot but keep their keys.
        w.push(t(3), "ancient");
        w.push(t(7), "old");
        w.push(t(10_500), "next");
        assert_eq!(w.peek_time(), Some(t(3)));
        let got = drain(&mut w);
        assert_eq!(got[0], (3, "ancient"));
        assert_eq!(got[1], (7, "old"));
        assert_eq!(got[2], (10_500, "next"));
    }

    #[test]
    fn generation_wraparound_aliases_exactly_like_the_slot_table() {
        let mut w = TimerWheel::with_capacity(2);
        let (n0, g0) = w.push(t(1), 1u32);
        assert_eq!((n0, g0), (0, 0));
        w.pop().expect("fires");
        w.force_gen(0, TimerWheel::<u32>::MAX_GEN);
        let (n1, g1) = w.push(t(2), 2u32);
        assert_eq!((n1, g1), (0, TimerWheel::<u32>::MAX_GEN));
        w.cancel(n1, g1);
        // The bump wrapped MAX_GEN -> 0: a fresh push reuses generation 0.
        let (n2, g2) = w.push(t(3), 3u32);
        assert_eq!((n2, g2), (0, 0));
        // The retired MAX-generation handle is stale and must no-op...
        w.cancel(n1, g1);
        assert_eq!(w.live_len(), 1);
        // ...while the wrapped handle (aliasing the very first push's
        // (node, gen) pair — the documented 2^32-reuse contract) works.
        w.cancel(n2, g2);
        assert!(w.is_empty());
    }

    #[test]
    fn occupancy_bits_clear_when_buckets_empty() {
        let mut w = TimerWheel::with_capacity(4);
        let (n, g) = w.push(t(5_000), ());
        let level1 = LEVEL_WORDS..2 * LEVEL_WORDS;
        assert!(
            w.hot.occ[level1.clone()].iter().any(|&b| b != 0),
            "tick 5000 crosses a level-1 window"
        );
        w.cancel(n, g);
        assert!(
            w.hot.occ[level1].iter().all(|&b| b == 0),
            "unlink must clear the bit"
        );
        assert!(w.peek_time().is_none());
    }

    #[test]
    fn full_lap_delta_does_not_alias_the_cursor_slot() {
        // Fuzzer-found regression against the original delta-magnitude
        // filing rule: with the cursor deep in top-level territory, a
        // delta just under the horizon could sit a full lap ahead,
        // alias the cursor's own slot, and corrupt the nearest-bucket
        // scan. Same-parent-window filing makes the case structurally
        // impossible (a block crossing overflows to the heap); this
        // pins the fuzzer's exact reproducing sequence, which remains
        // a cross-window ordering probe under any geometry.
        let mut w = TimerWheel::with_capacity(8);
        w.push(t(28_849_308_031), 0u32);
        w.pop().expect("warm-up pop");
        w.push(t(94_676_906_545), 1);
        w.push(t(96_945_396_916), 2);
        w.push(t(62_093_930_542), 3);
        w.push(t(78_257_135_242), 4);
        assert_eq!(w.peek_time(), Some(t(62_093_930_542)));
        let got = drain(&mut w);
        assert_eq!(got[0], (62_093_930_542, 3));
        assert_eq!(got[1], (78_257_135_242, 4));
        assert_eq!(got[2], (94_676_906_545, 1));
        assert_eq!(got[3], (96_945_396_916, 2));
    }

    #[test]
    fn heap_overflow_boundary_is_exact() {
        let mut w = TimerWheel::with_capacity(4);
        w.push(t(HORIZON - 1), "wheel");
        w.push(t(HORIZON), "heap");
        assert_eq!(w.heap.len(), 1, "exactly the next-block event overflows");
        let got = drain(&mut w);
        assert_eq!(got[0], (HORIZON - 1, "wheel"));
        assert_eq!(got[1], (HORIZON, "heap"));
    }

    #[test]
    fn eager_refresh_advance_stays_at_or_before_the_minimum() {
        // The minimum refresh may advance the cursor ahead of the last
        // popped time, but never past the earliest live event — pushes
        // between pops must still land ahead of (or clamp level with)
        // the cursor and pop in exact key order.
        let mut w = TimerWheel::with_capacity(8);
        w.push(t(10), "a");
        let (b, bg) = w.push(t(1_000_000), "b");
        assert_eq!(w.pop().map(|(at, e)| (at.as_nanos(), e)), Some((10, "a")));
        // The refresh advanced the cursor toward b; cancelling the
        // minimum forces another refresh with nothing left.
        w.cancel(b, bg);
        assert!(w.peek_time().is_none());
        // A push behind the advanced cursor still pops with its real
        // timestamp.
        w.push(t(50), "late");
        assert_eq!(w.peek_time(), Some(t(50)));
        assert_eq!(drain(&mut w), [(50, "late")]);
    }

    #[test]
    fn max_time_pushes_do_not_collide_with_the_empty_sentinel() {
        // `u64::MAX` is a legal timestamp; emptiness is keyed off the
        // NIL node, not the time, so such an event must still be
        // peekable and poppable.
        let mut w = TimerWheel::with_capacity(2);
        w.push(t(u64::MAX), "eon");
        assert_eq!(w.peek_time(), Some(t(u64::MAX)));
        assert_eq!(drain(&mut w), [(u64::MAX, "eon")]);
        assert!(w.peek_time().is_none());
    }

    /// A plain push at tick `at`, for the reserved-push tests below
    /// (one call site keeps them clear of the `hot-alloc` audit).
    fn plain<E>(w: &mut TimerWheel<E>, at: u64, e: E) -> (u32, u32) {
        w.push(t(at), e)
    }

    #[test]
    fn reserved_push_precedes_later_seqs_at_its_time() {
        let mut w = TimerWheel::with_capacity(8);
        // Level 0: every resident of the bucket shares the tick.
        let early = w.reserve();
        plain(&mut w, 5, "a");
        let mid = w.reserve();
        plain(&mut w, 5, "b");
        w.push_reserved(t(5), mid, "mid");
        w.push_reserved(t(5), early, "early");
        // A coarser bucket mixes ticks; only equal times reorder.
        let coarse = w.reserve();
        plain(&mut w, 5_000, "c");
        plain(&mut w, 4_999, "d");
        plain(&mut w, 5_000, "e");
        w.push_reserved(t(5_000), coarse, "coarse");
        assert_eq!(
            drain(&mut w),
            [
                (5, "early"),
                (5, "a"),
                (5, "mid"),
                (5, "b"),
                (4_999, "d"),
                (5_000, "coarse"),
                (5_000, "c"),
                (5_000, "e"),
            ]
        );
    }

    #[test]
    fn reserved_push_sorts_into_the_mixed_bucket() {
        let mut w = TimerWheel::with_capacity(8);
        let early = w.reserve();
        plain(&mut w, 10_000, "advance");
        plain(&mut w, 20_000, "later");
        assert_eq!(w.pop().map(|(at, _)| at), Some(t(10_000)));
        // The cursor sits past 7, so both clamp into its bucket.
        plain(&mut w, 7, "old");
        plain(&mut w, 3, "ancient");
        w.push_reserved(t(7), early, "reserved");
        assert!(w.hot.mixed, "past-time pushes mix the cursor's bucket");
        assert_eq!(
            drain(&mut w),
            [
                (3, "ancient"),
                (7, "reserved"),
                (7, "old"),
                (20_000, "later")
            ]
        );
    }

    #[test]
    fn reserved_push_orders_by_seq_in_the_heap() {
        let mut w = TimerWheel::with_capacity(8);
        let early = w.reserve();
        plain(&mut w, HORIZON + 9, "a");
        plain(&mut w, HORIZON + 9, "b");
        w.push_reserved(t(HORIZON + 9), early, "reserved");
        assert_eq!(w.heap.len(), 3, "all three overflow");
        assert_eq!(
            drain(&mut w),
            [
                (HORIZON + 9, "reserved"),
                (HORIZON + 9, "a"),
                (HORIZON + 9, "b")
            ]
        );
    }

    #[test]
    fn reserved_push_takes_the_minimum_on_a_tie() {
        let mut w = TimerWheel::with_capacity(8);
        let early = w.reserve();
        plain(&mut w, 40, "pushed");
        plain(&mut w, 90, "after");
        let (n, g) = w.push_reserved(t(40), early, "reserved");
        assert_eq!(w.hot.wmin.node, n, "the lower seq wins the tie");
        assert_eq!(w.peek_time(), Some(t(40)));
        w.cancel(n, g);
        assert_eq!(w.pop().map(|(_, e)| e), Some("pushed"));
        let early = w.reserve();
        plain(&mut w, 90, "last");
        w.push_reserved(t(90), early, "first");
        assert_eq!(drain(&mut w), [(90, "after"), (90, "first"), (90, "last")]);
    }

    #[test]
    fn hot_links_are_16_bytes() {
        // The hot/cold split contract: cascade state is exactly the
        // u64 time plus the two list links — no u128 key, no payload,
        // no stored bucket, no generation — 16 bytes, four per cache
        // line, never straddling one.
        assert_eq!(std::mem::size_of::<Link>(), 16);
        assert_eq!(std::mem::align_of::<Link>(), 8);
        assert_eq!(std::mem::align_of::<Hot>(), 64);
    }
}
