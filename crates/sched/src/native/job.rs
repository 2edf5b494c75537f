//! The unit of native work: a forked branch parked on its owner's stack,
//! and the type-erased reference the deques move between workers.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};

use super::runtime::note_current_worker_panic;
use crate::cl_deque::Word;

/// What running a job needs without knowing its type: the first field
/// of every [`StackJob`], so a pointer to it is a pointer to the job.
struct Header {
    /// `StackJob::<F, R>::exec` of the job this header starts.
    exec: unsafe fn(*const Header),
    /// Trace task id of the branch (0 when tracing is off).
    id: u32,
}

/// Type-erased pointer to a pending [`super::join`] branch, one word, so
/// a deque slot holds it whole. The pointee is a [`StackJob`] living in
/// the owner's `join` stack frame, which outlives every access: the
/// owner does not return from `join` until the job's `done` flag is
/// set, and the executor never touches the job after setting it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobRef(*const Header);

// SAFETY: a JobRef is only ever created from a StackJob whose closure and
// result are Send; the pointer itself crosses threads exactly once (one
// thief executes it, or the owner reclaims it).
unsafe impl Send for JobRef {}

impl Word for JobRef {
    fn into_word(self) -> *mut () {
        self.0.cast_mut().cast()
    }
    fn from_word(w: *mut ()) -> Self {
        JobRef(w.cast_const().cast())
    }
}

impl JobRef {
    /// The branch's trace task id. Read only while the job is alive:
    /// after it is claimed (pop or won steal) and before it executes.
    pub(crate) fn id(self) -> u32 {
        // SAFETY: the claimed, unexecuted job is alive (see above), and
        // nothing writes its header after `StackJob::new`.
        unsafe { (*self.0).id }
    }

    /// Run the job. SAFETY: the caller must hold the only live copy of
    /// this ref (a job executes exactly once) and the pointee must still
    /// be alive — guaranteed by the `join` protocol above.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: `exec` is the `StackJob::exec` this ref's header was
        // built with, and its contract — called at most once, on a live
        // pointee — is the caller's contract above.
        unsafe { ((*self.0).exec)(self.0) }
    }
}

/// A forked branch parked on the owner's stack: its header, the closure,
/// its result slot, and the completion flag the owner waits on.
/// `repr(C)` puts the header at offset 0.
#[repr(C)]
pub(crate) struct StackJob<F, R> {
    header: Header,
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    pub(crate) done: AtomicBool,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// A pending branch running `f`, traced as task `id`.
    pub(crate) fn new(f: F, id: u32) -> Self {
        Self {
            header: Header {
                exec: Self::exec,
                id,
            },
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
        }
    }

    /// The ref the deques carry. Derived from the whole job, not from
    /// `&self.header`, so `exec` may reach every field through it.
    pub(crate) fn as_job_ref(&self) -> JobRef {
        JobRef(ptr::from_ref(self).cast())
    }

    /// Run the job whose header `ptr` points to.
    ///
    /// # Safety
    ///
    /// Called at most once, with `ptr` pointing to a live Self.
    unsafe fn exec(ptr: *const Header) {
        // SAFETY: `ptr` came from `as_job_ref` on a Self that is still
        // alive (caller contract); the header is at offset 0 (`repr(C)`).
        let this = unsafe { &*ptr.cast::<Self>() };
        // SAFETY: this is the job's only execution, so no other thread
        // touches `f`.
        let f = unsafe { (*this.f.get()).take() }.expect("job executed twice");
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        if let Err(payload) = &r {
            // Attribute the panic to the executing worker; the pool
            // boundary re-raises it with this context.
            note_current_worker_panic(payload.as_ref());
        }
        // SAFETY: the owner reads `result` only after it observes `done`,
        // which is released below, after this write.
        unsafe { *this.result.get() = Some(r) };
        // Release: the result write must be visible before `done`.
        this.done.store(true, Ordering::Release);
    }

    /// Take the result after `done` is observed (Acquire).
    /// SAFETY: only the owner calls this, exactly once, after execution.
    pub(crate) unsafe fn take_result(&self) -> std::thread::Result<R> {
        // SAFETY: the executor's last access to `result` happened before
        // its Release of `done`, which the caller observed (Acquire), and
        // the owner is the only reader.
        unsafe { (*self.result.get()).take() }.expect("job result taken before execution")
    }
}

/// Best-effort human-readable panic payload.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The deque round trip the pool makes, single-threaded so Miri can run
/// it (CI: `cargo miri test -p hbp-sched --lib native::job::` under
/// `-Zmiri-strict-provenance`, where an integer round trip of the
/// pointer would fail).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cl_deque::{ClDeque, Steal};

    /// Push `job`'s ref through a deque, steal it back, check it is the
    /// same ref with the same id, run it and take its result.
    fn steal_and_run<F, R>(job: &StackJob<F, R>, id: u32) -> std::thread::Result<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let d = ClDeque::with_capacity(2);
        let r = job.as_job_ref();
        d.push(r);
        let Steal::Data(got) = d.steal() else {
            panic!("a deque holding one job must yield it to a steal");
        };
        assert!(got == r, "the stolen ref is the pushed one");
        assert_eq!(got.id(), id);
        assert!(!job.done.load(Ordering::Acquire));
        // SAFETY: `got` is the only claimed copy and `job` outlives this
        // call; `done` is checked before the one `take_result`.
        unsafe {
            got.execute();
            assert!(job.done.load(Ordering::Acquire), "execute sets done");
            job.take_result()
        }
    }

    #[test]
    fn a_stolen_job_ref_runs_its_job() {
        let job = StackJob::new(|| 41 + 1, 7);
        assert!(matches!(steal_and_run(&job, 7), Ok(42)));
    }

    #[test]
    fn a_stolen_panicking_job_yields_its_panic() {
        let job = StackJob::new(|| -> u32 { panic!("branch fails") }, 9);
        let Err(payload) = steal_and_run(&job, 9) else {
            panic!("a panicking branch must yield Err");
        };
        assert_eq!(payload_message(payload.as_ref()), "branch fails");
    }
}
