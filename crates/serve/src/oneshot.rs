//! A minimal one-shot rendezvous: the worker deposits one value, the
//! requesting thread blocks until it arrives. Built on `Mutex` + `Condvar`
//! (no vendored channel dependency); dropping the sender without sending
//! wakes the receiver with `None` instead of deadlocking it, and locking
//! is poison-free (see [`crate::sync`]) so a panicking worker can never
//! cascade into the waiting caller.

use crate::sync;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

struct Slot<T> {
    value: Mutex<(Option<T>, bool)>,
    ready: Condvar,
}

/// Producing half — consumed by [`Sender::send`].
pub(crate) struct Sender<T> {
    slot: Arc<Slot<T>>,
}

/// Consuming half — consumed by [`Receiver::recv_until`].
pub(crate) struct Receiver<T> {
    slot: Arc<Slot<T>>,
}

/// `recv_until` gave up before the sender resolved the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TimedOut;

/// Create a connected sender/receiver pair.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let slot = Arc::new(Slot {
        value: Mutex::new((None, false)),
        ready: Condvar::new(),
    });
    (
        Sender {
            slot: Arc::clone(&slot),
        },
        Receiver { slot },
    )
}

impl<T> Sender<T> {
    /// Deposit the value and wake the receiver. Never fails: if the
    /// receiver is already gone (ticket dropped, or its timeout expired),
    /// the value parks in the slot and is freed with it.
    pub(crate) fn send(self, value: T) {
        let mut guard = sync::lock(&self.slot.value);
        guard.0 = Some(value);
        guard.1 = true;
        drop(guard);
        self.slot.ready.notify_one();
        // Drop now runs too; its re-mark + notify are harmless after a
        // send, and skipping it (mem::forget) would leak the slot Arc.
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut guard = sync::lock(&self.slot.value);
        guard.1 = true;
        drop(guard);
        self.slot.ready.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Block until the value arrives or `deadline` passes (`None` waits
    /// without bound). `Ok(None)` means the sender was dropped without
    /// sending (the request was abandoned). The receiver is consumed
    /// either way; a value sent after the deadline is freed with the slot
    /// when the sender lets go of it.
    pub(crate) fn recv_until(self, deadline: Option<Instant>) -> Result<Option<T>, TimedOut> {
        let mut guard = sync::lock(&self.slot.value);
        while !guard.1 {
            guard = match deadline {
                None => sync::wait(&self.slot.ready, guard),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(TimedOut);
                    }
                    // Re-check the predicate rather than trusting the
                    // timeout flag: a send can race the wakeup.
                    sync::wait_timeout(&self.slot.ready, guard, d - now)
                }
            };
        }
        Ok(guard.0.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn in_ms(ms: u64) -> Option<Instant> {
        Some(Instant::now() + Duration::from_millis(ms))
    }

    #[test]
    fn delivers_across_threads() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.recv_until(None));
        tx.send(99);
        assert_eq!(h.join().unwrap(), Ok(Some(99)));
    }

    #[test]
    fn dropped_sender_unblocks_receiver() {
        for deadline in [None, in_ms(30_000)] {
            let (tx, rx) = channel::<u32>();
            drop(tx);
            assert_eq!(rx.recv_until(deadline), Ok(None));
        }
    }

    #[test]
    fn send_does_not_leak_the_slot() {
        // A deadline already past still takes a value already sent.
        for deadline in [None, Some(Instant::now())] {
            let (tx, rx) = channel::<u32>();
            let slot = Arc::downgrade(&tx.slot);
            tx.send(7);
            assert_eq!(rx.recv_until(deadline), Ok(Some(7)));
            assert!(
                slot.upgrade().is_none(),
                "slot still alive after both halves are gone"
            );
        }
    }

    #[test]
    fn deadline_times_out_on_silence() {
        let (tx, rx) = channel::<u32>();
        assert_eq!(
            rx.recv_until(in_ms(10)),
            Err(TimedOut),
            "nobody sent, must time out"
        );
        drop(tx);
    }

    #[test]
    fn deadline_returns_early_on_send() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.recv_until(in_ms(30_000)));
        tx.send(5);
        assert_eq!(h.join().unwrap(), Ok(Some(5)));
    }

    #[test]
    fn send_after_timeout_does_not_leak_or_panic() {
        // The drain-time race: the caller's bounded wait expires and drops
        // the receiver, then the worker answers anyway. The late value must
        // park in the slot and be freed with it — no panic, no leak.
        let (tx, rx) = channel::<Vec<u32>>();
        let slot = Arc::downgrade(&tx.slot);
        assert_eq!(rx.recv_until(in_ms(1)), Err(TimedOut));
        tx.send(vec![1, 2, 3]);
        assert!(
            slot.upgrade().is_none(),
            "slot (and the late value) must be freed once the sender is gone"
        );
    }

    #[test]
    fn send_after_receiver_drop_is_harmless() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        tx.send(9); // must not panic
    }

    #[test]
    fn poisoned_slot_still_delivers() {
        // A panic while holding the slot lock (fault injection can do
        // this) must not cascade into the receiver.
        let (tx, rx) = channel::<u32>();
        let slot = Arc::clone(&tx.slot);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = slot.value.lock().unwrap();
            panic!("poison the slot");
        }));
        let h = std::thread::spawn(move || rx.recv_until(None));
        tx.send(11);
        assert_eq!(h.join().unwrap(), Ok(Some(11)));
    }
}
