//! The unit of native work: a forked branch parked on its owner's stack,
//! and the type-erased reference the deques move between workers.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use super::runtime::note_current_worker_panic;

/// Type-erased pointer to a pending [`super::join`] branch. The pointee
/// is a [`StackJob`] living in the owner's `join` stack frame, which
/// outlives every access: the owner does not return from `join` until
/// the job's `done` flag is set, and the executor never touches the job
/// after setting it.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    pub(crate) data: *const (),
    exec: unsafe fn(*const ()),
    /// Trace task id of the branch (0 when tracing is off).
    pub(crate) id: u32,
}

// SAFETY: a JobRef is only ever created from a StackJob whose closure and
// result are Send; the pointer itself crosses threads exactly once (one
// thief executes it, or the owner reclaims it).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Run the job. SAFETY: the caller must hold the only live copy of
    /// this ref (a job executes exactly once) and the pointee must still
    /// be alive — guaranteed by the `join` protocol above.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: `exec` is the `StackJob::exec` this ref was built with,
        // and its contract — called at most once, on a live pointee — is
        // the caller's contract above.
        unsafe { (self.exec)(self.data) }
    }
}

/// A forked branch parked on the owner's stack: the closure, its result
/// slot, and the completion flag the owner waits on.
pub(crate) struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    pub(crate) done: AtomicBool,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(f: F) -> Self {
        Self {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
        }
    }

    pub(crate) fn as_job_ref(&self, id: u32) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::exec,
            id,
        }
    }

    /// SAFETY: called at most once, with `ptr` pointing to a live Self.
    unsafe fn exec(ptr: *const ()) {
        // SAFETY: `ptr` came from `as_job_ref` on a Self that is still
        // alive (caller contract).
        let this = unsafe { &*(ptr as *const Self) };
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
