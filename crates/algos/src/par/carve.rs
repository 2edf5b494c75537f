//! Carving a launch's one workspace into cache-line windows — the
//! allocation, its line alignment and the `arena_bytes` gauge — and the
//! one place an uninitialised window becomes data.
//!
//! **One owner for uninitialised memory.** A kernel writes its windows
//! through `&mut [MaybeUninit<T>]` and never holds an `unsafe` block of
//! its own: it turns a window it has written into `&mut [T]` with
//! [`written`], gets its output `Vec` from [`output`], views initialised
//! data as slots to overwrite with [`overwrite`], and hands a window it
//! reuses to the next writer through [`fresh`]. These calls are safe, but
//! they are not a proof: an element a writer skips stays uninitialised in
//! a release build. What holds every kernel to "every element is written
//! before it is read" is the debug build: [`workspace`], [`output`],
//! [`fresh`] and [`overwrite`] fill their windows with [`POISON`] bytes,
//! and [`written`] panics naming the first element that still holds
//! them. Every debug test run of a kernel checks every window at the
//! point where the kernel reads it; a release build does no fill and no
//! check, and compiles these calls to nothing. The poison is a value, so
//! an element a writer sets to the all-[`POISON`] pattern itself (caller
//! data can be that) also panics, in a debug build only.

use std::mem::MaybeUninit;

use hbp_model::Cx;

/// Bytes of a cache line: two workers writing inside one line is the
/// false sharing the window carving below rules out.
pub(super) const LINE_BYTES: usize = 64;

/// Elements of a cache line for `(u64, u64)` / `(usize, u64)` pairs —
/// the native analogue of the recorded SPMS's block-aligned output gaps.
pub(super) const LINE_PAIRS: usize = LINE_BYTES / std::mem::size_of::<(u64, u64)>();

/// Round `s` up to a whole number of cache lines of pairs.
pub(super) const fn line_up(s: usize) -> usize {
    whole_lines::<(u64, u64)>(s)
}

/// Round `len` elements of `T` up to a whole number of cache lines.
pub(super) const fn whole_lines<T>(len: usize) -> usize {
    len.next_multiple_of(LINE_BYTES / std::mem::size_of::<T>())
}

/// The byte a debug build fills every unwritten window with.
const POISON: u8 = 0xA5;

/// An element type the kernels carve windows of, with its poison: the
/// value every byte of which is [`POISON`].
pub(super) trait Slot: Copy {
    /// The all-[`POISON`] element.
    const POISON: Self;

    /// Whether `self` is [`Slot::POISON`], bit for bit.
    fn is_poison(&self) -> bool;
}

macro_rules! slot_int {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            const POISON: Self = <$t>::from_ne_bytes([POISON; std::mem::size_of::<$t>()]);

            fn is_poison(&self) -> bool {
                *self == Self::POISON
            }
        }
    )*};
}
slot_int!(u16, u64, usize);

impl Slot for f64 {
    const POISON: Self = f64::from_bits(u64::POISON);

    fn is_poison(&self) -> bool {
        self.to_bits() == u64::POISON
    }
}

impl Slot for Cx {
    const POISON: Self = Cx {
        re: f64::POISON,
        im: f64::POISON,
    };

    fn is_poison(&self) -> bool {
        self.re.is_poison() && self.im.is_poison()
    }
}

impl<A: Slot, B: Slot> Slot for (A, B) {
    const POISON: Self = (A::POISON, B::POISON);

    fn is_poison(&self) -> bool {
        self.0.is_poison() && self.1.is_poison()
    }
}

/// The one scratch allocation of a kernel launch, uninitialised: room
/// for `len` elements after `line_aligned` has skipped to a line boundary
/// of its `spare_capacity_mut`. Nothing is filled in a release build: the
/// recursion writes every window before it reads it (a debug build
/// poisons the whole capacity). Raises the `arena_bytes` high-water mark
/// by the capacity (one check per launch, far off the hot path).
pub(super) fn workspace<T: Slot>(len: usize) -> Vec<T> {
    let mut ws = Vec::with_capacity(len + LINE_BYTES / std::mem::size_of::<T>());
    fresh(ws.spare_capacity_mut());
    raise_arena_gauge(ws.capacity() * std::mem::size_of::<T>());
    ws
}

/// Record a launch's workspace of `bytes` in the `arena_bytes`
/// high-water mark.
pub(super) fn raise_arena_gauge(bytes: usize) {
    let m = hbp_metrics::global();
    if m.on() {
        m.arena_bytes.raise_to(bytes as i64);
    }
}

/// `window`, whose old values are dead, for its next writer: a debug
/// build poisons it, so that [`written`] sees what this writer missed
/// rather than what an earlier one left.
pub(super) fn fresh<T: Slot>(window: &mut [MaybeUninit<T>]) -> &mut [MaybeUninit<T>] {
    if cfg!(debug_assertions) {
        window.fill(MaybeUninit::new(T::POISON));
    }
    window
}

/// `window` as data, once its writers have stored every element. A debug
/// build panics instead if an element still holds the poison that
/// [`workspace`], [`output`], [`fresh`] or [`overwrite`] left there.
pub(super) fn written<T: Slot>(window: &mut [MaybeUninit<T>]) -> &mut [T] {
    // SAFETY: every window a kernel reads comes from this module, and its
    // writers store every element before this call — which a debug build,
    // where the window started as initialised poison, checks next.
    let data = unsafe { window.assume_init_mut() };
    if cfg!(debug_assertions) {
        if let Some(i) = data.iter().position(T::is_poison) {
            panic!(
                "element {i} of a {}-element window was never written",
                data.len()
            );
        }
    }
    data
}

/// A `Vec` of `len` elements, every one stored by `write` into the
/// uninitialised capacity it is handed.
pub(super) fn output<T: Slot>(len: usize, write: impl FnOnce(&mut [MaybeUninit<T>])) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    let slots = &mut out.spare_capacity_mut()[..len];
    write(fresh(slots));
    written(slots);
    // SAFETY: `write` stored every element of `out[..len]` (`written`
    // just checked that in a debug build).
    unsafe { out.set_len(len) };
    out
}

/// Let `write` overwrite every element of `x`, whose old values are dead
/// (scratch, or a destination), through slots: the same contract as a
/// fresh window, checked the same way before `x` is data again.
pub(super) fn overwrite<T: Slot>(x: &mut [T], write: impl FnOnce(&mut [MaybeUninit<T>])) {
    // SAFETY: `MaybeUninit<T>` has `T`'s layout; `write` stores a value
    // in every slot, so `x` is initialised again when the borrow ends.
    let slots = unsafe { &mut *(x as *mut [T] as *mut [MaybeUninit<T>]) };
    write(fresh(slots));
    written(slots);
}

/// `ws` from its first cache-line boundary on. The allocator aligns a
/// `Vec` to 16 bytes at best (glibc's mmap chunks start at page + 16),
/// so without the skip every line-multiple window would straddle lines.
pub(super) fn line_aligned<T>(ws: &mut [T]) -> &mut [T] {
    let skip = ws.as_ptr().align_offset(LINE_BYTES);
    &mut ws[skip..]
}

/// Forkable tasks take workspace windows that start on a line boundary.
pub(super) fn debug_assert_line_start<T>(window: &[T]) {
    debug_assert_eq!(window.as_ptr() as usize % LINE_BYTES, 0);
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// A window of `m` fresh `u64` slots with every element but `skip`
    /// written (its index).
    fn all_but(ws: &mut Vec<u64>, m: usize, skip: Option<usize>) -> &mut [MaybeUninit<u64>] {
        let window = &mut line_aligned(ws.spare_capacity_mut())[..m];
        for (i, slot) in window.iter_mut().enumerate() {
            if Some(i) != skip {
                slot.write(i as u64);
            }
        }
        window
    }

    #[test]
    fn poison_is_every_byte() {
        assert_eq!(u64::POISON.to_ne_bytes(), [POISON; 8]);
        assert_eq!(u16::POISON.to_ne_bytes(), [POISON; 2]);
        assert_eq!(f64::POISON.to_bits(), u64::POISON);
        assert!(Cx::POISON.is_poison() && <(u64, u64)>::POISON.is_poison());
        assert!(
            !(u64::POISON, 0u64).is_poison(),
            "a pair is poison only whole"
        );
    }

    #[test]
    #[should_panic(expected = "element 5 of a 9-element window was never written")]
    fn written_names_the_first_unwritten_element() {
        let mut ws = workspace(9);
        written(all_but(&mut ws, 9, Some(5)));
    }

    #[test]
    fn a_window_written_in_full_passes() {
        let mut ws = workspace(9);
        let data = written(all_but(&mut ws, 9, None));
        assert!(data.iter().copied().eq(0..9));
    }

    #[test]
    #[should_panic(expected = "element 0 of a 4-element window was never written")]
    fn a_window_handed_on_through_fresh_must_be_rewritten() {
        let mut ws = workspace(4);
        let window = all_but(&mut ws, 4, None);
        written(window);
        written(fresh(window));
    }

    #[test]
    #[should_panic(expected = "element 2 of a 4-element window was never written")]
    fn overwrite_checks_its_writer() {
        let mut x = vec![7u64; 4];
        overwrite(&mut x, |slots| {
            for i in [0, 1, 3] {
                slots[i].write(0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "element 1 of a 3-element window was never written")]
    fn output_checks_its_writer() {
        output::<f64>(3, |slots| {
            slots[0].write(1.0);
            slots[2].write(1.0);
        });
    }
}
