//! Injectable time source for the engine's lifecycle machinery.
//!
//! Everything in the engine that reads or waits on time — admission
//! stamps, deadline expiry, retry backoff, budget refill, circuit-breaker
//! cooldowns, injected chaos latency — goes through a [`Clock`] instead
//! of touching [`std::time::Instant`] directly. Production engines run on
//! the monotonic [`SystemClock`]; tests inject a [`TestClock`] whose time
//! only moves when the test calls [`TestClock::advance`], so
//! deadline/backoff/breaker behavior is exercised deterministically and
//! instantly instead of by sleeping.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::relock;

/// A monotonic time source. Time is reported as the [`Duration`] since
/// the clock's epoch (whatever that is for the implementation); the
/// engine only ever compares and subtracts these stamps.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Monotonic time since the clock's epoch.
    fn now(&self) -> Duration;

    /// How long a waiter may park in real time before re-checking a
    /// timed obligation due at `until` (clock time). `None` means "park
    /// indefinitely": the clock promises to fire the subscribed wakers
    /// whenever its time jumps (the [`TestClock`] contract, where
    /// virtual durations say nothing about real ones).
    fn wait_budget(&self, until: Duration) -> Option<Duration>;

    /// Pause the calling thread for `d` of this clock's time. Used by
    /// the chaos harness's latency faults: the system clock sleeps, the
    /// test clock advances itself.
    fn delay(&self, d: Duration);

    /// Register a waker invoked whenever the clock's time jumps
    /// discontinuously. The [`SystemClock`] never jumps and ignores
    /// this; the [`TestClock`] calls every waker from
    /// [`TestClock::advance`] so engine threads parked on timed waits
    /// re-check their obligations.
    fn subscribe(&self, wake: Box<dyn Fn() + Send + Sync>);
}

/// The production clock: a process-monotonic [`Instant`] epoch.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is now.
    pub fn new() -> SystemClock {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn wait_budget(&self, until: Duration) -> Option<Duration> {
        Some(until.saturating_sub(self.now()))
    }

    fn delay(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn subscribe(&self, _wake: Box<dyn Fn() + Send + Sync>) {}
}

#[derive(Default)]
struct TestClockInner {
    now: Duration,
    wakers: Vec<Arc<dyn Fn() + Send + Sync>>,
}

/// A deterministic clock for tests: time stands still until the test
/// advances it. Engine threads waiting on deadlines, backoff, or
/// breaker cooldowns park indefinitely (`wait_budget` returns `None`)
/// and are woken by [`TestClock::advance`] through the subscription
/// mechanism, so timed behavior runs at test speed with no sleeps and
/// no flakiness.
#[derive(Default)]
pub struct TestClock {
    inner: Mutex<TestClockInner>,
}

impl fmt::Debug for TestClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestClock")
            .field("now", &relock(&self.inner).now)
            .finish()
    }
}

impl TestClock {
    /// A clock at time zero, ready to share with an engine
    /// ([`crate::ServeEngine::with_clock`]).
    pub fn new() -> Arc<TestClock> {
        Arc::new(TestClock::default())
    }

    /// Jump time forward by `d` and wake every subscribed waiter.
    pub fn advance(&self, d: Duration) {
        let wakers = {
            let mut inner = relock(&self.inner);
            inner.now += d;
            inner.wakers.clone()
        };
        // Wake after dropping the clock's lock: a waker takes its
        // waiter's mutex (so the wake-up cannot fall between the waiter's
        // `now()` read and its park), and the waiter reads `now()` with
        // that mutex held — waking with the clock locked would invert the
        // order.
        for wake in wakers {
            wake();
        }
    }
}

impl Clock for TestClock {
    fn now(&self) -> Duration {
        relock(&self.inner).now
    }

    fn wait_budget(&self, _until: Duration) -> Option<Duration> {
        None
    }

    fn delay(&self, d: Duration) {
        self.advance(d);
    }

    fn subscribe(&self, wake: Box<dyn Fn() + Send + Sync>) {
        relock(&self.inner).wakers.push(Arc::from(wake));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(c.wait_budget(b + Duration::from_millis(5)).is_some());
    }

    #[test]
    fn test_clock_advances_and_wakes() {
        let c = TestClock::new();
        let woken = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woken);
        c.subscribe(Box::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_secs(3));
        c.delay(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_secs(4));
        assert_eq!(woken.load(Ordering::SeqCst), 2);
        assert_eq!(c.wait_budget(Duration::from_secs(10)), None);
    }
}
