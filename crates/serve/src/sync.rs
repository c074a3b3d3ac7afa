//! Poison-free locking, shared by the queue, the oneshot channel, and the
//! supervisor.
//!
//! The engine's failure model *expects* panics: fault injection (and real
//! bugs) can kill a worker at any point. `std`'s mutexes poison on
//! panic-while-held, and every `.lock().expect(..)` would then cascade one
//! worker's death into every thread that touches the same lock. None of
//! the engine's guarded state can be left logically inconsistent by a
//! panic (counters, a VecDeque of requests, a oneshot slot — each is
//! updated in a single assignment), so recovering the guard is always
//! sound here. These helpers centralize that policy.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `m`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait that survives poisoning.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with a timeout that survives poisoning. The caller
/// re-checks its predicate, so whether the wait timed out is not reported.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Mutex::new(5);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5, "value is intact after recovery");
        *lock(&m) = 6;
        assert_eq!(*lock(&m), 6);
    }
}
