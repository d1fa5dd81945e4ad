//! Offline stub of `crossbeam` (see `shims/README.md`).
//!
//! Only the `channel` module is provided. Unlike the first iteration of this
//! shim (which wrapped `std::sync::mpsc` and therefore supported a single
//! consumer), the channel is now a true multi-producer **multi-consumer**
//! queue built on `Mutex<VecDeque>` + `Condvar`, matching the crossbeam
//! semantics the workspace relies on:
//!
//! * `Receiver` is `Clone`, so a pool of worker threads can share one job
//!   queue (`aid_engine::WorkerPool`);
//! * `bounded(cap)` blocks senders when the queue is full, which is the
//!   backpressure primitive the engine's session queue uses;
//! * `recv_timeout` lets a joining thread interleave waiting with helping.
//!
//! A condvar is notified only when a thread is parked on it: every
//! `Condvar::notify_one` is a `futex` syscall even with nobody waiting,
//! and on the engine's unbounded job queues nobody usually is.
//!
//! Error types are re-used from `std::sync::mpsc`: they carry the same
//! fields and `Display` text as crossbeam's own, which keeps call sites
//! source-compatible with the real crate for the subset used here.

/// Multi-producer multi-consumer channels, mirroring the used subset of
/// `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Receiver::recv`] once the channel is empty and
    /// every sender is gone.
    pub use std::sync::mpsc::RecvError;
    /// Error returned by [`Receiver::recv_timeout`].
    pub use std::sync::mpsc::RecvTimeoutError;
    /// Error returned when the receiving side has hung up.
    pub use std::sync::mpsc::SendError;
    /// Error returned by [`Receiver::try_recv`].
    pub use std::sync::mpsc::TryRecvError;

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `None` = unbounded.
        capacity: Option<usize>,
        /// Receivers parked on `readable`.
        recv_waiting: usize,
        /// Senders parked on `writable`.
        send_waiting: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when a value arrives or the last sender leaves.
        readable: Condvar,
        /// Signalled when space frees up or the last receiver leaves.
        writable: Condvar,
    }

    /// Sending half of a channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half of a channel; cloneable for MPMC use.
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut g = self.0.inner.lock().unwrap();
            g.senders -= 1;
            if g.senders == 0 {
                // Wake receivers blocked on an empty queue so they can
                // observe disconnection.
                drop(g);
                self.0.readable.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut g = self.0.inner.lock().unwrap();
            g.receivers -= 1;
            if g.receivers == 0 {
                drop(g);
                self.0.writable.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, blocking while a bounded channel is full; fails
        /// only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut g = self.0.inner.lock().unwrap();
            loop {
                if g.receivers == 0 {
                    return Err(SendError(value));
                }
                match g.capacity {
                    Some(cap) if g.queue.len() >= cap => {
                        g.send_waiting += 1;
                        g = self.0.writable.wait(g).unwrap();
                        g.send_waiting -= 1;
                    }
                    _ => break,
                }
            }
            g.queue.push_back(value);
            let wake = g.recv_waiting > 0;
            drop(g);
            if wake {
                self.0.readable.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Pops the next value, waking one parked sender for the freed
        /// slot; hands the guard back when the queue is empty.
        fn pop<'a>(
            &'a self,
            mut g: MutexGuard<'a, Inner<T>>,
        ) -> Result<T, MutexGuard<'a, Inner<T>>> {
            let Some(v) = g.queue.pop_front() else {
                return Err(g);
            };
            let wake = g.send_waiting > 0;
            drop(g);
            if wake {
                self.0.writable.notify_one();
            }
            Ok(v)
        }

        /// Blocks for the next value; `Err` once the queue is empty and all
        /// senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self.0.inner.lock().unwrap();
            loop {
                g = match self.pop(g) {
                    Ok(v) => return Ok(v),
                    Err(g) => g,
                };
                if g.senders == 0 {
                    return Err(RecvError);
                }
                g.recv_waiting += 1;
                g = self.0.readable.wait(g).unwrap();
                g.recv_waiting -= 1;
            }
        }

        /// Like [`Receiver::recv`] but gives up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut g = self.0.inner.lock().unwrap();
            loop {
                g = match self.pop(g) {
                    Ok(v) => return Ok(v),
                    Err(g) => g,
                };
                if g.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                g.recv_waiting += 1;
                g = self.0.readable.wait_timeout(g, deadline - now).unwrap().0;
                g.recv_waiting -= 1;
            }
        }

        /// Returns the next value if one is queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let g = self.0.inner.lock().unwrap();
            match self.pop(g) {
                Ok(v) => Ok(v),
                Err(g) if g.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Number of values currently queued.
        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Iterates until every sender has been dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Borrowing iterator over received values.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning iterator over received values.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel: `send` blocks while `cap` values are
    /// queued. `cap` must be at least 1 (crossbeam's zero-capacity
    /// rendezvous channel is not modeled).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "rendezvous channels are not modeled by the shim");
        with_capacity(Some(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, TryRecvError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn cloned_senders_feed_one_receiver() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(1).unwrap());
            s.spawn(move || tx2.send(2).unwrap());
        });
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let taken = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for r in [&rx, &rx2] {
                s.spawn(|| {
                    while r.recv().is_ok() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
        });
        assert_eq!(taken.load(Ordering::Relaxed), 100, "each value taken once");
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // The third send must block until the receiver drains one slot.
        std::thread::scope(|s| {
            let t = s.spawn(|| tx.send(3).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!t.is_finished(), "send must block while full");
            assert_eq!(rx.recv().unwrap(), 1);
        });
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn disconnection_is_observable() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(7).is_err(), "send fails with no receivers");
    }

    /// Wakeups go only to parked threads, so a missed count would strand
    /// a value or a sender. Four receivers park on an empty queue while
    /// four senders park on a `bounded(1)` slot; every value must arrive
    /// exactly once and every thread must finish.
    #[test]
    fn parked_waiters_receive_every_value_exactly_once() {
        const SENDERS: usize = 4;
        const RECEIVERS: usize = 4;
        const PER_SENDER: usize = 2_000;
        for (tx, rx) in [bounded(1), unbounded()] {
            let got = std::thread::scope(|s| {
                let takers: Vec<_> = (0..RECEIVERS)
                    .map(|_| {
                        let rx = rx.clone();
                        s.spawn(move || rx.iter().collect::<Vec<usize>>())
                    })
                    .collect();
                drop(rx);
                for sender in 0..SENDERS {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..PER_SENDER {
                            tx.send(sender * PER_SENDER + i).unwrap();
                        }
                    });
                }
                drop(tx);
                let mut got: Vec<usize> =
                    takers.into_iter().flat_map(|t| t.join().unwrap()).collect();
                got.sort_unstable();
                got
            });
            assert_eq!(got, (0..SENDERS * PER_SENDER).collect::<Vec<_>>());
        }
    }

    /// A strict request/reply exchange: each side parks alone on its
    /// channel while the other works, so every reply depends on one
    /// notify reaching a lone parked waiter. A lost wakeup hangs here,
    /// because no disconnect comes along to wake the stranded side.
    #[test]
    fn ping_pong_wakes_a_lone_parked_peer() {
        let (ping_tx, ping_rx) = unbounded::<u32>();
        let (pong_tx, pong_rx) = bounded::<u32>(1);
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(i) = ping_rx.recv() {
                    pong_tx.send(i + 1).unwrap();
                }
            });
            for i in 0..2_000 {
                ping_tx.send(i).unwrap();
                assert_eq!(pong_rx.recv().unwrap(), i + 1);
            }
            drop(ping_tx);
        });
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded::<u8>();
        assert!(rx.recv_timeout(Duration::from_millis(5)).is_err());
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), 9);
    }
}
