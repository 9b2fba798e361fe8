//! Calendar queue: the engine's bucketed event timeline.
//!
//! [`CalendarQueue`] replaces the single `BinaryHeap` the engine used
//! through PR 5. The heap paid `O(log n)` pointer-chasing comparisons on
//! every push and pop; at the 1024-server bench tier the dispatch bucket
//! of the phase profiler showed queue maintenance costing more wall time
//! than all device modelling combined. The calendar queue makes the
//! common operations `O(1)`:
//!
//! * **Arena slots.** Event payloads live in a slab (`slots`) reused
//!   through a LIFO free list, so steady-state scheduling allocates
//!   nothing and recently-freed slots stay cache-hot. Queue structures
//!   move only small `(time, seq, slot)` keys.
//! * **Bucket ring.** Pending times map to fixed-width buckets
//!   (`width = 1 << shift` ns); a ring of `ring.len()` buckets covers the
//!   window `[base, base + ring.len())` of bucket indices. A push inside
//!   the window is an unsorted `Vec` push. A two-level occupancy bitmap
//!   finds the next non-empty bucket without scanning empties one by one.
//! * **Current bucket.** The head bucket is sorted once when the cursor
//!   reaches it and then drained by index. Events scheduled *into* the
//!   current bucket mid-drain (zero-delay hops, sub-bucket service
//!   times) go to a small side min-heap merged lazily at pop time —
//!   `O(log k)` instead of an `O(bucket)` sorted insert. They provably
//!   belong in the undrained suffix: `schedule` rejects past times and
//!   `seq` is monotone, so a new key always sorts after the last popped
//!   key.
//! * **Overflow heap.** Times beyond the window land in a far-future
//!   `BinaryHeap` and are merged into their bucket when the cursor gets
//!   there. The window parameters adapt (wider ring, finer or coarser
//!   buckets) from observed occupancy, so the heap only ever sees a small
//!   fraction of traffic.
//!
//! **Ordering contract.** Pop order is exactly ascending `(at, seq)` —
//! byte-for-byte the order the old heap produced (its tie-break was
//! insertion sequence). Every internal parameter (bucket width, ring
//! size, adaptation points) is derived from event content alone, never
//! from wall time, so runs are bit-identical across machines and across
//! parameter retunings that preserve the contract. The proptest in
//! `tests/calendar_order.rs` drives random schedules (same-timestamp
//! bursts, far-future outliers, mid-drain insertions) through this queue
//! and a reference heap and asserts identical pop sequences.

use crate::time::SimNanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Initial bucket width: `2^18` ns ≈ 262 µs. Loading a bucket (swap +
/// sort + bitmap bookkeeping) is the expensive step, so buckets want to
/// hold a batch of events, not one: tens of entries per load keeps the
/// amortised cost per pop at a couple of comparisons.
const INIT_SHIFT: u32 = 18;
/// Initial ring size (buckets). 4096 × 262 µs ≈ 1.07 s of window.
const INIT_BUCKETS: usize = 1 << 12;
/// Ring growth cap: 65 536 bucket headers ≈ 1.5 MiB — still trivial
/// next to the event payloads of a run that needs a window this wide.
const MAX_BUCKETS: usize = 1 << 16;
/// Widest bucket the adapter will pick: `2^30` ns ≈ 1.07 s.
const MAX_SHIFT: u32 = 30;
/// Pops between parameter reviews. Wide enough to average over the
/// bursty phases of a fan-out workload (whole fan-outs land inside one
/// window), so the gap estimate tracks the steady rate, not the bursts.
const ADAPT_EVERY: u64 = 32768;
/// Target mean entries per bucket. Small keeps most pushes out of the
/// current bucket (an `O(1)` ring push instead of a side-heap insert)
/// while still amortising the fixed cost of a bucket load over several
/// pops; 4 measured fastest on the 8- to 4096-server engine tiers.
const TARGET_OCCUPANCY: u64 = 4;

/// Queue key: orders by `(at, seq)`; `slot` rides along and is never
/// compared because `seq` is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimNanos,
    seq: u64,
    slot: u32,
}

/// Two-level occupancy bitmap over ring positions.
///
/// Level 0 has one bit per bucket; level 1 has one bit per level-0 word.
/// `next_occupied_after` resolves in at most a handful of word reads even
/// on a 65 536-bucket ring.
#[derive(Debug, Default)]
struct OccBitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl OccBitmap {
    fn with_capacity(bits: usize) -> Self {
        let words = bits.div_ceil(64);
        OccBitmap {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] |= 1u64 << (pos % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    #[inline]
    fn clear(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] &= !(1u64 << (pos % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// First occupied position after `pos` in circular order (wrapping
    /// all the way round to `pos` itself last), or `None` if empty.
    fn next_occupied_after(&self, pos: usize, len: usize) -> Option<usize> {
        debug_assert!(pos < len);
        let (w, bit) = (pos / 64, pos % 64);
        // Bits strictly above `pos` within its own word.
        let tail = if bit == 63 {
            0
        } else {
            self.words[w] & (u64::MAX << (bit + 1))
        };
        if tail != 0 {
            return Some(w * 64 + tail.trailing_zeros() as usize);
        }
        // Whole words after `w`, then wrap to the words up to and
        // including `w`; the summary level skips runs of empty words.
        // Any hit back in word `w` is a bit at or below `pos` (the tail
        // check cleared the rest), which circular order visits last.
        let scan = |from: usize, to: usize| -> Option<usize> {
            let mut i = from;
            while i < to {
                let s = i / 64;
                let masked = self.summary[s] & (u64::MAX << (i % 64));
                if masked == 0 {
                    i = (s + 1) * 64;
                    continue;
                }
                let j = s * 64 + masked.trailing_zeros() as usize;
                if j >= to {
                    return None;
                }
                // The summary invariant guarantees `words[j] != 0`.
                return Some(j * 64 + self.words[j].trailing_zeros() as usize);
            }
            None
        };
        scan(w + 1, self.words.len()).or_else(|| scan(0, w + 1))
    }
}

/// The engine's pending-event store. See the module docs for the design;
/// the public surface is deliberately tiny because [`Scheduler`]
/// (`crate::engine`) owns sequence numbering and time monotonicity.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    /// Arena of event payloads; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// LIFO free list into `slots`.
    free: Vec<u32>,
    /// Bucket ring; position `b & mask` holds bucket `b` for
    /// `b` in `(base, base + ring.len())`.
    ring: Vec<Vec<Key>>,
    /// `ring.len() - 1`. Ring sizes are always powers of two so the
    /// position map is a mask, not a hardware division — the map runs
    /// once per push and twice per bucket load.
    mask: u64,
    occ: OccBitmap,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Absolute index of the current bucket (the one `cur` holds).
    base: u64,
    /// Current bucket, sorted ascending, drained from `cur_pos`.
    cur: Vec<Key>,
    cur_pos: usize,
    /// Keys scheduled *into* the current bucket mid-drain (zero-delay
    /// hops, sub-bucket service times). A side min-heap instead of a
    /// sorted insert into `cur`: the engine's hot pattern lands most
    /// pushes a few microseconds ahead — inside the bucket being
    /// drained — and a `Vec::insert` there is an `O(bucket)` memmove
    /// per push, which profiling showed dominating dispatch.
    cur_extra: BinaryHeap<Reverse<Key>>,
    /// Far-future events beyond the ring window, earliest first.
    overflow: BinaryHeap<Reverse<Key>>,
    len: usize,
    // Adaptation state: pops since creation and the pop time of the
    // last geometry review.
    pops: u64,
    last_review_at: SimNanos,
    /// EWMA of the mean gap between pop times (ns), 0 until the first
    /// review. Smoothing keeps one anomalous window from thrashing the
    /// geometry.
    gap_ewma: u64,
    rebuilds: u64,
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            ring: (0..INIT_BUCKETS).map(|_| Vec::new()).collect(),
            mask: INIT_BUCKETS as u64 - 1,
            occ: OccBitmap::with_capacity(INIT_BUCKETS),
            shift: INIT_SHIFT,
            base: 0,
            cur: Vec::new(),
            cur_pos: 0,
            cur_extra: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            pops: 0,
            last_review_at: SimNanos::ZERO,
            gap_ewma: 0,
            rebuilds: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Times the queue has re-tuned its bucket geometry (observability).
    #[inline]
    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    #[inline]
    fn bucket_of(&self, at: SimNanos) -> u64 {
        at.as_nanos() >> self.shift
    }

    #[inline]
    fn window_end(&self) -> u64 {
        self.base.saturating_add(self.ring.len() as u64)
    }

    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(event);
            slot
        } else {
            self.slots.push(Some(event));
            (self.slots.len() - 1) as u32
        }
    }

    /// Insert an event. The caller (`Scheduler`) guarantees `at >= now`
    /// and that `seq` is strictly greater than every previously used
    /// sequence number.
    pub(crate) fn push(&mut self, at: SimNanos, seq: u64, event: E) {
        let slot = self.alloc(event);
        self.len += 1;
        self.place(Key { at, seq, slot });
    }

    /// Route a key to the current bucket, the ring, or the overflow heap.
    #[inline]
    fn place(&mut self, key: Key) {
        let b = self.bucket_of(key.at);
        if b <= self.base {
            // `at >= now` means `b >= bucket_of(now)`; the cursor never
            // sits past `bucket_of(now)`, so `b < base` is unreachable
            // and this arm is exactly the current bucket. The new key
            // sorts after the last popped key (time is monotone, seq is
            // fresh), so merging it lazily at pop time preserves order.
            debug_assert!(b == self.base);
            self.cur_extra.push(Reverse(key));
        } else if b < self.window_end() {
            let pos = (b & self.mask) as usize;
            self.ring[pos].push(key);
            self.occ.set(pos);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Earliest pending time, or `None` if the queue is empty. Positions
    /// the cursor as a side effect (shares all work with `pop`).
    pub(crate) fn peek_at(&mut self) -> Option<SimNanos> {
        if !self.settle() {
            return None;
        }
        let head = self.cur.get(self.cur_pos).map(|k| k.at);
        let extra = self.cur_extra.peek().map(|Reverse(k)| k.at);
        match (head, extra) {
            (Some(h), Some(e)) => Some(h.min(e)),
            (h, e) => h.or(e),
        }
    }

    /// Remove and return the earliest `(at, seq)` event.
    pub(crate) fn pop(&mut self) -> Option<(SimNanos, E)> {
        if !self.settle() {
            return None;
        }
        // The head is the smaller of the sorted drain cursor and the
        // mid-drain side heap; `settle` guarantees at least one exists.
        let key = match (self.cur.get(self.cur_pos), self.cur_extra.peek()) {
            (Some(&h), Some(&Reverse(e))) if e < h => {
                self.cur_extra.pop();
                e
            }
            (Some(&h), _) => {
                self.cur_pos += 1;
                h
            }
            (None, Some(_)) => {
                let Reverse(e) = self.cur_extra.pop()?;
                e
            }
            (None, None) => return None,
        };
        self.len -= 1;
        self.pops += 1;
        // Every queued key owns a filled slot; `?` keeps the impossible
        // case from needing a panic site.
        let event = self.slots[key.slot as usize].take()?;
        self.free.push(key.slot);
        if self.pops.is_multiple_of(ADAPT_EVERY) {
            self.adapt(key.at);
        }
        Some((key.at, event))
    }

    /// Ensure `cur[cur_pos]` is the global minimum; returns `false` iff
    /// the queue is empty.
    #[inline]
    fn settle(&mut self) -> bool {
        if self.cur_pos < self.cur.len() || !self.cur_extra.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        self.advance()
    }

    /// Move `base` to the next non-empty bucket and load it into `cur`.
    /// Returns `false` only if no bucket holds an entry, which `len > 0`
    /// rules out.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur_extra.is_empty(), "settle drains extra first");
        let nb = self.ring.len() as u64;
        let pos = (self.base & self.mask) as usize;
        let ring_next = self.occ.next_occupied_after(pos, self.ring.len()).map(|q| {
            let dist = (q as u64 + nb - pos as u64) & self.mask;
            self.base + dist
        });
        let over_next = self.overflow.peek().map(|Reverse(k)| self.bucket_of(k.at));
        let next = match (ring_next, over_next) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => return false,
        };
        self.base = next;
        let pos = (self.base & self.mask) as usize;
        self.cur.clear();
        std::mem::swap(&mut self.cur, &mut self.ring[pos]);
        self.occ.clear(pos);
        while let Some(Reverse(k)) = self.overflow.peek() {
            if self.bucket_of(k.at) != self.base {
                break;
            }
            let Some(Reverse(k)) = self.overflow.pop() else {
                break;
            };
            self.cur.push(k);
        }
        self.cur.sort_unstable();
        self.cur_pos = 0;
        true
    }

    /// Periodic geometry review, driven by two measured quantities:
    ///
    /// * the mean **gap** between consecutive pop times over the last
    ///   review window — sets the bucket width so a bucket holds about
    ///   [`TARGET_OCCUPANCY`] events;
    /// * the estimated temporal **span** of the standing queue
    ///   (`len × gap`) — widens buckets past the occupancy target when
    ///   the ring could not otherwise cover the span, so deep standing
    ///   queues never live in the overflow heap.
    ///
    /// Both inputs are functions of event content alone (pop times and
    /// queue length), never of wall time, so the geometry trajectory is
    /// reproducible. Because the rule maps measurements directly to a
    /// target instead of nudging parameters stepwise, a steady workload
    /// reaches its fixpoint in one rebuild and never oscillates.
    fn adapt(&mut self, at: SimNanos) {
        let delta = at.as_nanos().saturating_sub(self.last_review_at.as_nanos());
        self.last_review_at = at;
        let raw = (delta / ADAPT_EVERY).max(1);
        self.gap_ewma = if self.gap_ewma == 0 {
            raw
        } else {
            (3 * (self.gap_ewma / 4)).saturating_add(raw / 4).max(1)
        };
        let gap = self.gap_ewma;
        let span = (self.len as u64).saturating_mul(gap).max(1);
        let occ_width = gap.saturating_mul(TARGET_OCCUPANCY);
        let buckets = usize::try_from(span / occ_width.max(1))
            .unwrap_or(MAX_BUCKETS)
            .next_power_of_two()
            .clamp(INIT_BUCKETS, MAX_BUCKETS);
        let cover_width = span.div_ceil(buckets as u64).next_power_of_two();
        let shift = occ_width.max(cover_width).ilog2().min(MAX_SHIFT);
        // Hysteresis: a one-step width disagreement is within noise and
        // not worth an O(len) rebuild; act on clear regime changes only.
        if shift.abs_diff(self.shift) >= 2 || buckets != self.ring.len() {
            self.rebuild(shift, buckets, at);
        }
    }

    /// Re-bucket every pending key under new geometry. `O(len)`; runs at
    /// most once per `ADAPT_EVERY` pops so the amortised cost is noise.
    /// `now` is the pop time that triggered the review.
    fn rebuild(&mut self, shift: u32, buckets: usize, now: SimNanos) {
        self.rebuilds += 1;
        let mut keys: Vec<Key> = Vec::with_capacity(self.len);
        keys.extend_from_slice(&self.cur[self.cur_pos..]);
        keys.extend(self.cur_extra.drain().map(|Reverse(k)| k));
        for bucket in &mut self.ring {
            keys.append(bucket);
        }
        keys.extend(self.overflow.drain().map(|Reverse(k)| k));
        self.shift = shift;
        if buckets != self.ring.len() {
            debug_assert!(buckets.is_power_of_two(), "ring sizes stay powers of two");
            self.ring = (0..buckets).map(|_| Vec::new()).collect();
            self.mask = buckets as u64 - 1;
        }
        self.occ = OccBitmap::with_capacity(buckets);
        self.cur.clear();
        self.cur_pos = 0;
        // Anchor the cursor at the bucket of the pop time that triggered
        // the review, not at the earliest *pending* key: a handler may
        // still schedule a zero-delay follow-up at `now`, and `place`
        // requires `base <= bucket_of(at)` for every future push. `now`
        // is a lower bound on all pending and future keys (pop order is
        // ascending and `schedule` rejects past times), so every key
        // lands at or ahead of the cursor.
        self.base = now.as_nanos() >> shift;
        for key in keys {
            self.place(key);
        }
        self.cur.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, ev)) = q.pop() {
            out.push((at.as_nanos(), ev));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimNanos(50), 0, 0);
        q.push(SimNanos(10), 1, 1);
        q.push(SimNanos(50), 2, 2);
        q.push(SimNanos(10), 3, 3);
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 3), (50, 0), (50, 2)]);
    }

    #[test]
    fn far_future_outliers_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        // Far beyond the initial 67 ms window — lands in the heap.
        let far = SimNanos::from_secs(3600);
        q.push(far, 0, 7);
        q.push(SimNanos(5), 1, 1);
        q.push(SimNanos::MAX, 2, 9);
        assert_eq!(q.len(), 3);
        assert_eq!(
            drain(&mut q),
            vec![(5, 1), (far.as_nanos(), 7), (u64::MAX, 9)]
        );
    }

    #[test]
    fn mid_drain_insertion_lands_in_the_current_bucket() {
        let mut q = CalendarQueue::new();
        q.push(SimNanos(100), 0, 0);
        q.push(SimNanos(200), 1, 1);
        let (at, ev) = q.pop().expect("first");
        assert_eq!((at.as_nanos(), ev), (100, 0));
        // Zero-delay hop: same bucket, must pop before the 200 ns event.
        q.push(SimNanos(100), 2, 2);
        q.push(SimNanos(150), 3, 3);
        assert_eq!(drain(&mut q), vec![(100, 2), (150, 3), (200, 1)]);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut q = CalendarQueue::new();
        for round in 0..100u64 {
            q.push(SimNanos(round), round, round);
            let _ = q.pop();
        }
        // One live event at a time: the slab never grows past one slot.
        assert_eq!(q.slots.len(), 1);
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push(SimNanos(40), 0, 0);
        q.push(SimNanos(30), 1, 1);
        assert_eq!(q.peek_at(), Some(SimNanos(30)));
        assert_eq!(q.peek_at(), Some(SimNanos(30)));
        assert_eq!(q.pop(), Some((SimNanos(30), 1)));
        assert_eq!(q.peek_at(), Some(SimNanos(40)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn random_schedule_matches_reference_heap() {
        // Adversarial mix: same-timestamp bursts, far-future outliers,
        // zero-delay follow-ups — enough traffic to cross several adapt
        // reviews. The heavier proptest lives in tests/calendar_order.rs.
        let mut rng = SimRng::new(7);
        let mut q = CalendarQueue::new();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..160_000 {
            if rng.uniform_f64(0.0, 1.0) < 0.55 {
                let jump = match rng.index(3) {
                    0 => 0,
                    1 => rng.uniform_u64(0, 1 << 12),
                    // Far beyond the initial ring window (2^30 ns): a third
                    // of pushes land in the overflow heap, forcing the
                    // adapt review to regrow the geometry at least once.
                    _ => rng.uniform_u64(0, 1 << 36),
                };
                let at = SimNanos(now + jump);
                q.push(at, seq, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            } else if let Some((at, ev)) = q.pop() {
                now = at.as_nanos();
                popped.push((at, ev));
                let Some(Reverse((rat, rseq))) = reference.pop() else {
                    panic!("reference empty while calendar popped");
                };
                expected.push((rat, rseq));
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        expected.extend(std::iter::from_fn(|| reference.pop()).map(|Reverse(k)| k));
        assert!(q.rebuilds() > 0, "adversarial mix should trigger retuning");
        assert_eq!(popped, expected);
    }

    #[test]
    fn bitmap_finds_next_in_circular_order() {
        let mut occ = OccBitmap::with_capacity(300);
        assert_eq!(occ.next_occupied_after(10, 300), None);
        occ.set(70);
        occ.set(299);
        occ.set(5);
        assert_eq!(occ.next_occupied_after(10, 300), Some(70));
        assert_eq!(occ.next_occupied_after(70, 300), Some(299));
        assert_eq!(occ.next_occupied_after(299, 300), Some(5));
        occ.clear(70);
        assert_eq!(occ.next_occupied_after(10, 300), Some(299));
        occ.clear(299);
        occ.clear(5);
        assert_eq!(occ.next_occupied_after(0, 300), None);
    }

    #[test]
    fn bitmap_wraps_within_one_word() {
        let mut occ = OccBitmap::with_capacity(64);
        occ.set(3);
        assert_eq!(occ.next_occupied_after(10, 64), Some(3));
        assert_eq!(occ.next_occupied_after(2, 64), Some(3));
        occ.set(63);
        assert_eq!(occ.next_occupied_after(10, 64), Some(63));
    }
}
