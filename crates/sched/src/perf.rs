//! Hardware counter sampling for the native backend: per-worker
//! `perf_event` file descriptors read at task boundaries, so the trace
//! carries *measured* miss deltas in the same [`MissDelta`](hbp_trace::EventKind::MissDelta) vocabulary the
//! simulator fills with *predicted* ones — closing the model-vs-hardware
//! loop the paper's bounds invite.
//!
//! ## Channels
//!
//! Each worker opens three self-monitoring counters (pid 0, any CPU,
//! userspace only) and maps their deltas onto the `MissDelta` fields:
//!
//! | `MissDelta` field | sim meaning              | native counter       |
//! |-------------------|--------------------------|----------------------|
//! | `heap_block`      | heap block misses        | `cache-misses`       |
//! | `stack_block`     | stack block misses       | `LLC-load-misses`    |
//! | `stack_plain`     | plain stack misses       | `context-switches`   |
//!
//! The mapping is deliberate: the paper's block misses are coherence
//! traffic (≈ last-level cache misses), and context switches are the
//! native proxy for "my worker lost the cache through no fault of the
//! algorithm" — `trace_diff` reports totals per side, it never pretends
//! the units match across backends.
//!
//! ## Degradation
//!
//! The fds come from a raw `perf_event_open(2)` (no external crates; the
//! syscall is declared directly), opened once per worker thread on its
//! first traced task. Where the kernel refuses them (`perf_event_paranoid`,
//! seccomp, a PMU without the events, a non-Linux host) the worker reads
//! nothing and its tasks carry no `MissDelta` at all: a native trace holds
//! measured misses or none, never invented ones. [`granted`] says which.
//!
//! Sampling happens only while a trace sink is attached; with tracing off
//! this module costs nothing.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// Cumulative values of the three sampled channels, in the `MissDelta`
/// field order: `[heap_block, stack_block, stack_plain]`.
pub type CounterValues = [u64; 3];

static GRANTED: AtomicBool = AtomicBool::new(false);

/// Whether a worker in this process has opened its counters — what the
/// trace tools print as the counter source, `perf` or `none` (reporting
/// only; every worker meets the same kernel).
pub fn granted() -> bool {
    GRANTED.load(Relaxed)
}

// ---------------------------------------------------------------------
// Thread-local sampling entry point used by the worker runtime.
// ---------------------------------------------------------------------

thread_local! {
    /// The calling worker thread's counters, opened on first use (pool
    /// worker threads persist across jobs, so this is one open per
    /// thread per process); `None` inside when the kernel refused them.
    static SOURCE: OnceCell<Option<PerfCounters>> = const { OnceCell::new() };
}

/// Read the calling worker's cumulative counters, opening them on first
/// call (the fds monitor the opening thread, so each worker opens its
/// own). `None` when the kernel refused them.
pub(crate) fn sample() -> Option<CounterValues> {
    SOURCE.with(|s| {
        s.get_or_init(|| {
            let opened = PerfCounters::open();
            if opened.is_some() {
                GRANTED.store(true, Relaxed);
            }
            opened
        })
        .as_ref()?
        .read()
    })
}

// ---------------------------------------------------------------------
// Raw perf_event_open plumbing (Linux).
// ---------------------------------------------------------------------

/// Live `perf_event` fds for the three channels, in `MissDelta` order.
struct PerfCounters {
    fds: [i32; 3],
}

#[cfg(target_os = "linux")]
mod sys {
    //! The `perf_event_open(2)` ABI, declared by hand: the container has
    //! no crates.io access, and the std-linked libc already exports
    //! `syscall`/`read`/`close`.

    /// `struct perf_event_attr`, ABI version ≥ 3 prefix — the kernel
    /// accepts any size it knows, and 120 (`PERF_ATTR_SIZE_VER6`) is
    /// ancient enough for every kernel this repo can meet.
    #[repr(C)]
    #[derive(Default)]
    pub struct PerfEventAttr {
        pub type_: u32,
        pub size: u32,
        pub config: u64,
        pub sample_period_or_freq: u64,
        pub sample_type: u64,
        pub read_format: u64,
        /// Bitfield word: bit 0 `disabled`, bit 5 `exclude_kernel`,
        /// bit 6 `exclude_hv`.
        pub flags: u64,
        pub wakeup: u32,
        pub bp_type: u32,
        pub config1: u64,
        pub config2: u64,
        pub branch_sample_type: u64,
        pub sample_regs_user: u64,
        pub sample_stack_user: u32,
        pub clockid: i32,
        pub sample_regs_intr: u64,
        pub aux_watermark: u32,
        pub sample_max_stack: u16,
        pub reserved_2: u16,
        pub aux_sample_size: u32,
        pub reserved_3: u32,
    }

    pub const ATTR_SIZE: u32 = std::mem::size_of::<PerfEventAttr>() as u32;

    pub const EXCLUDE_KERNEL: u64 = 1 << 5;
    pub const EXCLUDE_HV: u64 = 1 << 6;

    pub const PERF_TYPE_HARDWARE: u32 = 0;
    pub const PERF_TYPE_SOFTWARE: u32 = 1;
    pub const PERF_TYPE_HW_CACHE: u32 = 3;
    pub const PERF_COUNT_HW_CACHE_MISSES: u64 = 3;
    pub const PERF_COUNT_SW_CONTEXT_SWITCHES: u64 = 3;
    /// LL cache | read op | miss result. The read-op field is literally
    /// zero in the kernel ABI encoding; spelled out so all three fields
    /// of the cache-event id stay visible.
    #[allow(clippy::identity_op)]
    pub const LLC_LOAD_MISSES: u64 = 2 | (0 << 8) | (1 << 16);

    pub const PERF_FLAG_FD_CLOEXEC: u64 = 8;

    #[cfg(target_arch = "x86_64")]
    pub const SYS_PERF_EVENT_OPEN: i64 = 298;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_PERF_EVENT_OPEN: i64 = 241;

    extern "C" {
        pub fn syscall(num: i64, ...) -> i64;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    /// Open one self-monitoring counter on the calling thread, enabled
    /// from the start, counting userspace only. `None` on any refusal
    /// (EPERM/EACCES from `perf_event_paranoid`, ENOENT for an event the
    /// PMU lacks, ENOSYS under seccomp).
    pub fn open_counter(type_: u32, config: u64) -> Option<i32> {
        let attr = PerfEventAttr {
            type_,
            size: ATTR_SIZE,
            config,
            flags: EXCLUDE_KERNEL | EXCLUDE_HV,
            ..Default::default()
        };
        // pid 0 (this thread), cpu -1 (any), no group, close-on-exec.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                0i32,
                -1i32,
                -1i32,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        (fd >= 0).then_some(fd as i32)
    }
}

impl PerfCounters {
    /// Open the three channels on the calling thread; all-or-nothing
    /// (a host that allows software but not hardware events samples
    /// nothing rather than reporting lopsided zeros).
    fn open() -> Option<PerfCounters> {
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let specs = [
                (sys::PERF_TYPE_HARDWARE, sys::PERF_COUNT_HW_CACHE_MISSES),
                (sys::PERF_TYPE_HW_CACHE, sys::LLC_LOAD_MISSES),
                (sys::PERF_TYPE_SOFTWARE, sys::PERF_COUNT_SW_CONTEXT_SWITCHES),
            ];
            let mut fds = [-1i32; 3];
            for (i, &(t, c)) in specs.iter().enumerate() {
                match sys::open_counter(t, c) {
                    Some(fd) => fds[i] = fd,
                    None => {
                        for &fd in &fds[..i] {
                            unsafe { sys::close(fd) };
                        }
                        return None;
                    }
                }
            }
            Some(PerfCounters { fds })
        }
    }

    fn read(&self) -> Option<CounterValues> {
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let mut out = [0u64; 3];
            for (i, &fd) in self.fds.iter().enumerate() {
                let mut buf = [0u8; 8];
                let n = unsafe { sys::read(fd, buf.as_mut_ptr(), 8) };
                if n != 8 {
                    return None;
                }
                out[i] = u64::from_ne_bytes(buf);
            }
            Some(out)
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for PerfCounters {
    fn drop(&mut self) {
        for &fd in &self.fds {
            if fd >= 0 {
                unsafe { sys::close(fd) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_monotone_or_not_at_all() {
        let Some(a) = sample() else {
            assert!(PerfCounters::open().is_none(), "denied once, denied again");
            return;
        };
        assert!(granted());
        // Burn some cycles so the cycle-adjacent channels move.
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = sample().expect("open fds read");
        for ch in 0..3 {
            assert!(b[ch] >= a[ch], "channel {ch} went backwards");
        }
    }
}
