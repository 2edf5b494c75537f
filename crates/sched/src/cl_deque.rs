//! A lock-free Chase–Lev work-stealing deque.
//!
//! This is the real realization of the Obs 4.1 deque discipline that the
//! simulator's `deque.rs` models in virtual time: the owner pushes and
//! pops at the **bottom** without synchronization in the common case,
//! thieves race on the **top** with a single compare-and-swap, and the
//! one genuinely contended case — owner and thief meeting on the last
//! element — is arbitrated by a `SeqCst` fence plus a CAS on `top`
//! (Chase & Lev, SPAA 2005; memory orderings follow Lê, Pop, Cohen &
//! Zappa Nardelli, PPoPP 2013).
//!
//! ## Shape
//!
//! * `bottom` and `top` are monotonically increasing indices into a
//!   **growable circular array** (capacity always a power of two; slots
//!   are addressed `index & mask`, so the indices themselves never wrap).
//! * [`ClDeque::push`] grows the array when full — owner-only, so growth
//!   needs no CAS: the new buffer is published with a `Release` store.
//! * **Retired-buffer reclamation**: a thief may still be reading a slot
//!   of a buffer the owner just replaced. Each buffer therefore links
//!   the one it replaced, and the chain is freed only when the deque is
//!   dropped — the degenerate (and provably safe) end of the epoch
//!   spectrum. A deque that grows `g` times retires `2^{g+1} - 2` slots
//!   total, i.e. less than one extra copy of the largest live buffer, so
//!   the cost is bounded and there is no per-operation reclamation
//!   bookkeeping on the steal path.
//! * [`ClDeque::steal_with`] takes an **admission filter**: the thief
//!   reads the top element, asks the filter, and only then CASes `top`.
//!   A denied element stays in place for its owner to pop — a §5.3-style
//!   size floor applied thief-side, before the claiming CAS. The native
//!   runtime calls only [`ClDeque::steal`] (admit everything, one task);
//!   the filter and [`ClDeque::steal_batch_with`] stay for callers that
//!   measure them.
//!
//! ## Safety notes
//!
//! Elements are `Copy` words ([`Word`]) and each slot is one
//! `AtomicPtr<()>`, stored and loaded `Relaxed` (Lê et al.): the
//! `bottom` Release/Acquire pair publishes a slot to the thieves that
//! see its index. A thief's load can still race with the owner storing
//! to the same physical slot after the element was lost elsewhere — the
//! standard Chase–Lev hazard — but as an atomic race it is defined, and
//! the word it yields is never used: the thief re-checks `top` before
//! the admission filter or the caller sees it (see `claim`). The only
//! `unsafe` left is buffer lifetime. The single-threaded unit tests
//! below are Miri-clean; the steal storms in `tests/cl_deque.rs` run
//! the cross-thread protocol, also under ThreadSanitizer in CI.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};

/// An element of a [`ClDeque`]: a `Copy` value that is one slot word.
/// Integers travel as addresses without provenance, so a pointer
/// element keeps its provenance through the deque.
pub trait Word: Copy + Send {
    /// The slot word for `self`.
    fn into_word(self) -> *mut ();
    /// The element a slot word holds; inverse of [`Word::into_word`].
    fn from_word(w: *mut ()) -> Self;
}

impl Word for usize {
    fn into_word(self) -> *mut () {
        ptr::without_provenance_mut(self)
    }
    fn from_word(w: *mut ()) -> Self {
        w.addr()
    }
}

#[cfg(target_pointer_width = "64")]
impl Word for u64 {
    fn into_word(self) -> *mut () {
        ptr::without_provenance_mut(self as usize)
    }
    fn from_word(w: *mut ()) -> Self {
        w.addr() as u64
    }
}

/// Outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The top element was read and claimed.
    Data(T),
    /// Lost a race (another thief took the top, or the owner popped the
    /// last element); retrying immediately may succeed.
    Retry,
    /// The admission filter refused the top element; it stays in place.
    Denied,
}

/// One circular buffer generation: a power-of-two count of word slots.
struct Buffer {
    slots: Box<[AtomicPtr<()>]>,
    /// The generation this one replaced (null for the first), freed
    /// with it on drop.
    prev: *mut Buffer,
}

impl Buffer {
    fn new(cap: usize, prev: *mut Buffer) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::new(Self { slots, prev })
    }

    /// The physical slot of logical index `i`.
    fn slot(&self, i: isize) -> &AtomicPtr<()> {
        &self.slots[(i as usize) & (self.slots.len() - 1)]
    }
}

/// The lock-free Chase–Lev deque (see module docs).
///
/// The owner calls [`push`](ClDeque::push) / [`pop`](ClDeque::pop) from
/// one thread; any number of thieves call [`steal`](ClDeque::steal) /
/// [`steal_with`](ClDeque::steal_with) concurrently.
pub struct ClDeque<T: Word> {
    /// Next index the owner pushes at (owner-written, thief-read).
    bottom: AtomicIsize,
    /// Next index thieves steal at (CASed by thieves and the owner's
    /// last-element pop).
    top: AtomicIsize,
    /// Current buffer generation, the head of the chain of replaced
    /// ones (see module docs).
    buffer: AtomicPtr<Buffer>,
    /// Slots hold words, not `T`s; `T: Word` is `Send`, so the deque is
    /// `Send` and `Sync`.
    _elem: PhantomData<fn() -> T>,
}

impl<T: Word> Default for ClDeque<T> {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl<T: Word> ClDeque<T> {
    /// Initial slot count of [`ClDeque::default`] — enough that the
    /// fork-join kernels rarely grow, small enough that per-worker
    /// deques stay cache-resident.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty deque whose first buffer holds `cap` slots (rounded up
    /// to a power of two, minimum 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        Self {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::new(cap, ptr::null_mut()))),
            _elem: PhantomData,
        }
    }

    /// The current buffer generation, loaded with `order`.
    fn buffer(&self, order: Ordering) -> &Buffer {
        // SAFETY: every generation, current or replaced, stays allocated
        // until `Drop`, which takes `&mut self` and so cannot overlap
        // this borrow.
        unsafe { &*self.buffer.load(order) }
    }

    /// Approximate number of queued elements (exact when quiescent;
    /// a racing snapshot otherwise). For the tests below.
    #[cfg(test)]
    fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// Current buffer capacity (owner side). For the tests below.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buffer(Ordering::Acquire).slots.len()
    }

    /// Owner: publish `v` at the bottom. Lock- and wait-free (growth
    /// allocates, but never blocks on another thread).
    pub fn push(&self, v: T) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buffer(Ordering::Relaxed);
        if b - t >= buf.slots.len() as isize {
            buf = self.grow(b, t);
        }
        buf.slot(b).store(v.into_word(), Ordering::Relaxed);
        // Publish the element before the index: a thief that observes
        // bottom = b + 1 must also observe the slot store.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: take the bottom element (LIFO). The only synchronizing
    /// case is the last-element conflict with a thief, resolved by the
    /// `SeqCst` fence + CAS on `top`.
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // The owner's bottom decrement must be globally visible before
        // it reads top, or a concurrent thief and the owner could both
        // take the last element.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        let take = || T::from_word(buf.slot(b).load(Ordering::Relaxed));
        if t < b {
            // More than one element: the bottom one is ours outright.
            return Some(take());
        }
        // The last element (t == b) is raced for via top; a deque that
        // was already empty (t > b) is not. Either way, restore bottom.
        let won = t == b
            && self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
        self.bottom.store(b + 1, Ordering::Relaxed);
        won.then(take)
    }

    /// Thief: claim the top element (FIFO relative to the owner's
    /// pushes).
    pub fn steal(&self) -> Steal<T> {
        self.steal_with(|_| true)
    }

    /// Thief: read the top element, consult `admit`, and only claim it
    /// (CAS on `top`) if admitted. A denied element is left in place and
    /// [`Steal::Denied`] is returned — the §5.3 size-floor hook.
    pub fn steal_with(&self, admit: impl FnOnce(&T) -> bool) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Order the top read before the bottom read: observing a stale
        // (small) bottom after a fresh top can only under-report, never
        // steal a popped element.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        self.claim(self.buffer(Ordering::Acquire), t, admit)
    }

    /// Thief: one claim of logical index `t` out of buffer generation
    /// `buf`, both snapshotted after `t < bottom` was observed — load
    /// the slot, validate the load, consult `admit`, CAS `top`. Every
    /// steal, single or batched, is a sequence of these. Never returns
    /// [`Steal::Empty`]: a lost race is [`Steal::Retry`].
    ///
    /// The owner can reuse physical slot `t & mask` of `buf` only once
    /// `top` has advanced past `t`: a push at index `b ≡ t (mod cap)`
    /// requires the owner to have read `top > t`, else it would have
    /// grown into a fresh buffer and left this one untouched behind
    /// it. `top` is monotonic, so `top == t` after the load
    /// proves the word is the element at `t` before `admit` sees it.
    #[inline]
    fn claim(&self, buf: &Buffer, t: isize, admit: impl FnOnce(&T) -> bool) -> Steal<T> {
        let v = T::from_word(buf.slot(t).load(Ordering::Relaxed));
        if self.top.load(Ordering::Acquire) != t {
            // Raced: another thief claimed index t, and the owner may
            // have stored a new word into the slot since.
            return Steal::Retry;
        }
        if !admit(&v) {
            return Steal::Denied;
        }
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Data(v)
        } else {
            Steal::Retry
        }
    }

    /// Thief: claim up to `max` elements from the top in **one claiming
    /// sequence** — a single probe (one `top`/`bottom`/buffer snapshot,
    /// one fence) followed by back-to-back claims, appending the stolen
    /// elements to `out` in deque (FIFO) order. With `max == 1` this is
    /// [`steal_with`](ClDeque::steal_with), element for element.
    ///
    /// At most **half** the observed queue is taken (rounded up, always
    /// at least one), so a victim with work in flight keeps the majority
    /// of its deque. `admit` is consulted per element in claim order; the
    /// first denial ends the batch with the denied element left in
    /// place — since fork depth grows toward the bottom, the admitted
    /// prefix is exactly the shallowest (§5.3-admissible) run.
    ///
    /// Why each claim still CASes `top` once: the owner pops the
    /// *bottom* without touching `top` (except on the last element), so
    /// a single range-claim `top: t → t+k` could double-take an element
    /// a concurrent owner pop already returned. Claiming one index at a
    /// time — re-reading `bottom` between claims, exactly the
    /// single-steal protocol replayed — keeps exactly-once delivery.
    /// The batch still amortizes what actually dominates small-task
    /// steal cost: the probe scan, the fence pair, the failed-attempt
    /// backoff, and the per-steal bookkeeping (one trace commit, one
    /// counter update for the whole batch) — and after the first
    /// successful claim the `top` line is held exclusive, so the
    /// follow-up CASes are local.
    ///
    /// Returns [`Steal::Data`]`(k)` with `k >= 1` elements appended,
    /// [`Steal::Empty`] / [`Steal::Denied`] / [`Steal::Retry`] (nothing
    /// appended) otherwise.
    pub fn steal_batch_with(
        &self,
        max: usize,
        mut admit: impl FnMut(&T) -> bool,
        out: &mut Vec<T>,
    ) -> Steal<usize> {
        let mut t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        let avail = b - t;
        if avail <= 0 {
            return Steal::Empty;
        }
        // Ceil-half of what we saw, bounded by the caller's cap.
        let want = (((avail + 1) / 2) as usize).min(max.max(1));
        let buf = self.buffer(Ordering::Acquire);
        let mut taken = 0usize;
        while taken < want {
            if taken > 0 {
                // The owner pops the bottom without moving `top`, so
                // only a fresh `bottom` read can show the deque drained
                // beneath the rest of our planned batch.
                fence(Ordering::SeqCst);
                if t >= self.bottom.load(Ordering::Acquire) {
                    break;
                }
            }
            match self.claim(buf, t, &mut admit) {
                Steal::Data(v) => out.push(v),
                Steal::Denied if taken == 0 => return Steal::Denied,
                _ => break,
            }
            taken += 1;
            t += 1;
        }
        if taken == 0 {
            // There was data, but we lost every race for it.
            Steal::Retry
        } else {
            Steal::Data(taken)
        }
    }

    /// Owner: replace the full buffer with one of twice the capacity,
    /// copying the live window `[t, b)`; the new one links the old.
    fn grow(&self, b: isize, t: isize) -> &Buffer {
        let old = self.buffer(Ordering::Relaxed);
        let new = Buffer::new(old.slots.len() * 2, self.buffer.load(Ordering::Relaxed));
        for i in t..b {
            new.slot(i)
                .store(old.slot(i).load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.buffer.store(Box::into_raw(new), Ordering::Release);
        self.buffer(Ordering::Relaxed)
    }
}

impl<T: Word> Drop for ClDeque<T> {
    fn drop(&mut self) {
        // &mut self: no owner or thief holds a generation any more.
        let mut p = *self.buffer.get_mut();
        while !p.is_null() {
            // SAFETY: every generation came from `Box::into_raw`, and the
            // chain from the current one reaches each exactly once.
            p = unsafe { Box::from_raw(p) }.prev;
        }
    }
}

/// Single-threaded unit tests: every path of the protocol that does not
/// need a second thread, kept Miri-clean (CI runs
/// `cargo miri test -p hbp-sched --lib cl_deque::`).
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn owner_push_pop_is_lifo() {
        let d = ClDeque::with_capacity(8);
        for i in 0..5u64 {
            d.push(i);
        }
        for i in (0..5u64).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None, "pop on empty stays empty");
    }

    #[test]
    fn steal_takes_the_top_fifo() {
        let d = ClDeque::with_capacity(8);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        assert_eq!(d.pop(), Some(3), "owner still pops the bottom");
        assert_eq!(d.steal(), Steal::Data(2));
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_steal_tracks_a_model() {
        use std::collections::VecDeque;
        let d = ClDeque::with_capacity(4);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = 0u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 3 {
                0 => {
                    d.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => assert_eq!(d.pop(), model.pop_back()),
                _ => {
                    let want = model.pop_front();
                    match d.steal() {
                        Steal::Data(v) => assert_eq!(Some(v), want),
                        Steal::Empty => assert_eq!(want, None),
                        s => panic!("single-threaded steal cannot be {s:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn grows_past_the_initial_capacity_and_keeps_order() {
        let d = ClDeque::with_capacity(2);
        let n = 1000u64;
        for i in 0..n {
            d.push(i);
        }
        assert!(d.capacity() >= n as usize, "buffer grew");
        assert_eq!(d.len_hint(), n as usize);
        // Steal half from the top (0..), pop the rest from the bottom.
        for i in 0..n / 2 {
            assert_eq!(d.steal(), Steal::Data(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.len_hint(), 0);
    }

    #[test]
    fn growth_with_wrapped_window_preserves_the_live_elements() {
        // Advance top so the live window wraps the circular buffer, then
        // force a growth: the copy must be window-relative, not raw.
        let d = ClDeque::with_capacity(4);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        for i in 4..9u64 {
            d.push(i); // crosses the old capacity → grow with offset top
        }
        for i in 2..9u64 {
            assert_eq!(d.steal(), Steal::Data(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_with_denied_leaves_the_element_in_place() {
        let d = ClDeque::with_capacity(4);
        d.push(10u64);
        d.push(20u64);
        assert_eq!(d.steal_with(|&v| v >= 15), Steal::Denied);
        assert_eq!(d.len_hint(), 2, "denied element not consumed");
        assert_eq!(d.steal_with(|&v| v >= 5), Steal::Data(10));
        assert_eq!(d.steal_with(|&v| v >= 25), Steal::Denied);
        assert_eq!(d.pop(), Some(20), "owner is never filtered");
    }

    #[test]
    fn a_batch_of_one_is_steal_with_step_for_step() {
        // `steal_batch_with(1, ..)` is a single `steal_with`: the same
        // script on two deques must agree on the outcome variant and the
        // element at every step. Small on purpose: CI runs this module
        // under Miri.
        let single = ClDeque::with_capacity(2);
        let batch = ClDeque::with_capacity(2);
        let mut out: Vec<u64> = Vec::new();
        let mut step = |floor: u64| {
            let admit = |v: &u64| *v >= floor;
            let got = single.steal_with(admit);
            out.clear();
            let want = match batch.steal_batch_with(1, admit, &mut out) {
                Steal::Data(k) => {
                    assert_eq!((k, out.len()), (1, 1), "a cap of one claims one");
                    Steal::Data(out[0])
                }
                Steal::Empty => Steal::Empty,
                Steal::Retry => Steal::Retry,
                Steal::Denied => Steal::Denied,
            };
            assert_eq!(got, want, "floor {floor}");
            assert_eq!(single.len_hint(), batch.len_hint(), "floor {floor}");
            got
        };
        assert_eq!(step(0), Steal::Empty);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = 0u64;
        for _ in 0..160 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 | 1 => {
                    single.push(next);
                    batch.push(next);
                    next += 1;
                }
                2 => assert_eq!(single.pop(), batch.pop()),
                // Floors straddle the live ids, so admits and denials mix.
                _ => {
                    step(next.saturating_sub(x >> 61));
                }
            }
        }
        // Denied leaves the top in place on both; the last element goes
        // to the thief on both, and then both are empty.
        while single.pop().is_some() {
            batch.pop();
        }
        single.push(7);
        batch.push(7);
        assert_eq!(step(8), Steal::Denied);
        assert_eq!(step(7), Steal::Data(7));
        assert_eq!(step(0), Steal::Empty);
        assert_eq!((single.pop(), batch.pop()), (None, None));
    }

    #[test]
    fn steal_batch_takes_ceil_half_in_fifo_order() {
        let d = ClDeque::with_capacity(16);
        for i in 0..8u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // 8 queued → ceil-half is 4, under a generous cap.
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(d.len_hint(), 4);
        // 4 left → ceil-half is 2, but the cap binds first.
        out.clear();
        assert_eq!(d.steal_batch_with(1, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![4]);
        // The owner still pops its (LIFO) bottom underneath the batches.
        assert_eq!(d.pop(), Some(7));
        out.clear();
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn steal_batch_on_one_element_and_empty() {
        let d = ClDeque::with_capacity(4);
        let mut out: Vec<u64> = Vec::new();
        assert_eq!(d.steal_batch_with(8, |_| true, &mut out), Steal::Empty);
        d.push(42);
        // One element: ceil-half of 1 is 1 — a batch never observes an
        // element it cannot take.
        assert_eq!(d.steal_batch_with(8, |_| true, &mut out), Steal::Data(1));
        assert_eq!(out, vec![42]);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_batch_admission_stops_at_the_first_denial() {
        let d = ClDeque::with_capacity(16);
        for i in 0..8u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // Admit only values < 2: the batch claims the admitted prefix
        // (deque order 0, 1) and leaves the denied element in place.
        assert_eq!(
            d.steal_batch_with(8, |&v| v < 2, &mut out),
            Steal::Data(2),
            "admitted prefix claimed"
        );
        assert_eq!(out, vec![0, 1]);
        assert_eq!(d.len_hint(), 6);
        // First element denied → Denied, nothing claimed.
        out.clear();
        assert_eq!(d.steal_batch_with(8, |&v| v > 100, &mut out), Steal::Denied);
        assert!(out.is_empty());
        assert_eq!(d.len_hint(), 6);
    }

    #[test]
    fn steal_batch_with_growth_and_wrapped_window() {
        // Same geometry as the single-steal growth test: the live
        // window wraps the circular buffer before growing.
        let d = ClDeque::with_capacity(4);
        for i in 0..4u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Data(0));
        assert_eq!(d.steal(), Steal::Data(1));
        for i in 4..9u64 {
            d.push(i);
        }
        let mut out = Vec::new();
        // 7 live (2..=8) → ceil-half is 4.
        assert_eq!(d.steal_batch_with(64, |_| true, &mut out), Steal::Data(4));
        assert_eq!(out, vec![2, 3, 4, 5]);
        for i in (6..9u64).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn empty_deque_steals_report_empty() {
        let d: ClDeque<u64> = ClDeque::default();
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.steal_with(|_| true), Steal::Empty);
        assert_eq!(d.len_hint(), 0);
        assert_eq!(d.capacity(), ClDeque::<u64>::DEFAULT_CAPACITY);
    }

    #[test]
    fn owner_drain_races_a_filtering_thief_without_loss_or_duplication() {
        // The owner yields so a concurrent thief can drain the deque
        // through the top-CAS path, then pops everything left from the
        // bottom — racing the thief's last steals. The thief's admission
        // filter makes the second half of the ids thief-invisible, as
        // a §5.3 size floor does deep tasks, so the owner's
        // drain is what claims them. Exactly-once must survive the
        // owner's pop-bottom racing the thief's steal-top. Small on
        // purpose: CI runs this module under Miri.
        use std::sync::atomic::AtomicU64;
        const N: u64 = 128;
        let d = Arc::new(ClDeque::with_capacity(8));
        for i in 1..=N {
            d.push(i);
        }
        let claimed_sum = Arc::new(AtomicU64::new(0));
        let claimed_n = Arc::new(AtomicUsize::new(0));
        let (td, ts, tn) = (
            Arc::clone(&d),
            Arc::clone(&claimed_sum),
            Arc::clone(&claimed_n),
        );
        let thief = std::thread::spawn(move || {
            let mut denied = 0u32;
            loop {
                match td.steal_with(|&v| v <= N / 2) {
                    Steal::Data(v) => {
                        denied = 0;
                        ts.fetch_add(v, Ordering::Relaxed);
                        tn.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => {}
                    Steal::Denied => {
                        denied += 1;
                        if denied > 8 {
                            break; // admission wall: leave it to the owner
                        }
                        std::thread::yield_now();
                    }
                    Steal::Empty => break,
                }
            }
        });
        // A bounded yield window for the thief, then the owner claims
        // whatever is left — admission-denied tasks included.
        for _ in 0..32 {
            if d.len_hint() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        while let Some(v) = d.pop() {
            claimed_sum.fetch_add(v, Ordering::Relaxed);
            claimed_n.fetch_add(1, Ordering::Relaxed);
        }
        thief.join().unwrap();
        assert_eq!(
            claimed_n.load(Ordering::Relaxed),
            N as usize,
            "every task claimed exactly once across thief + draining owner"
        );
        assert_eq!(
            claimed_sum.load(Ordering::Relaxed),
            N * (N + 1) / 2,
            "the claim multiset is exactly 1..=N — no loss, no duplication"
        );
    }
}
