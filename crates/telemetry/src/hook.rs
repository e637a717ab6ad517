//! Zero-cost-when-disabled profiling hook.
//!
//! The simulator (`insum_gpu`) and compiler (`insum_inductor`) cannot see
//! the serve engine's per-request traces — they are leaf crates. Instead
//! they wrap their hot entry points in [`timed`], which is a single
//! relaxed atomic load when no collector is installed (the "disabled"
//! fast path asserted by the CI overhead gate).
//!
//! The serve scheduler installs a thread-local [`collect`] collector for
//! the duration of its run loop, passing the engine clock as the time
//! source — so under a virtual `TestClock` all hook durations are 0 and
//! traces stay deterministic. Because artifact compilation, autotuning,
//! and batch launches all happen on the scheduler thread, the collector
//! sees exactly the work done on behalf of the requests being processed;
//! the scheduler drains intervals after each step and folds them into
//! the active traces.
//!
//! Nesting rules keep the aggregates non-overlapping: a nested interval
//! of the same phase is suppressed (e.g. a launch made inside another
//! launch's interval), and `Compile`/`Launch` intervals are suppressed
//! while an `Autotune` interval is open (probe compiles/launches are
//! part of the sweep).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::trace::Phase;

/// Phase of work a hook interval covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookPhase {
    /// Kernel compilation (`Program::compile`, chain lowering).
    Compile,
    /// Autotune sweep (includes its probe compiles and launches).
    Autotune,
    /// Simulator launch.
    Launch,
}

impl HookPhase {
    fn idx(self) -> usize {
        match self {
            HookPhase::Compile => 0,
            HookPhase::Autotune => 1,
            HookPhase::Launch => 2,
        }
    }

    /// The corresponding trace phase.
    pub fn trace_phase(self) -> Phase {
        match self {
            HookPhase::Compile => Phase::Compile,
            HookPhase::Autotune => Phase::Autotune,
            HookPhase::Launch => Phase::Launch,
        }
    }
}

/// Number of threads with an installed collector. The fast gate: when
/// zero, [`timed`] returns immediately after one relaxed load.
static ACTIVE_COLLECTORS: AtomicUsize = AtomicUsize::new(0);

struct Collector {
    now: Box<dyn Fn() -> Duration>,
    intervals: Vec<(HookPhase, u64)>,
    depth: [u32; 3],
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install a collector on the current thread for the lifetime of the
/// returned guard. `now` is the time source (pass the engine clock so
/// virtual clocks yield deterministic zero durations).
///
/// Installing while a collector is already present replaces it (the old
/// intervals are dropped); collectors do not nest.
pub fn collect(now: Box<dyn Fn() -> Duration>) -> CollectorGuard {
    COLLECTOR.with(|c| {
        let prev = c.borrow_mut().replace(Collector {
            now,
            intervals: Vec::new(),
            depth: [0; 3],
        });
        if prev.is_none() {
            ACTIVE_COLLECTORS.fetch_add(1, Ordering::Relaxed);
        }
    });
    CollectorGuard { _private: () }
}

/// Uninstalls the thread's collector on drop.
pub struct CollectorGuard {
    _private: (),
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        // try_with: thread teardown may have destroyed the TLS slot.
        let _ = COLLECTOR.try_with(|c| {
            if c.borrow_mut().take().is_some() {
                ACTIVE_COLLECTORS.fetch_sub(1, Ordering::Relaxed);
            }
        });
    }
}

/// True when some thread has a collector installed. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_COLLECTORS.load(Ordering::Relaxed) != 0
}

/// Time a region of work under `phase`. Returns a guard that records the
/// interval into the current thread's collector when dropped; a no-op
/// (after one relaxed atomic load) when no collector is installed.
#[inline]
pub fn timed(phase: HookPhase) -> TimedGuard {
    if !enabled() {
        return TimedGuard { active: None };
    }
    timed_slow(phase)
}

#[cold]
fn timed_slow(phase: HookPhase) -> TimedGuard {
    let start = COLLECTOR
        .try_with(|c| {
            let mut slot = c.borrow_mut();
            let col = slot.as_mut()?;
            let suppressed = col.depth[phase.idx()] > 0
                || (phase != HookPhase::Autotune && col.depth[HookPhase::Autotune.idx()] > 0);
            if suppressed {
                return None;
            }
            col.depth[phase.idx()] += 1;
            Some((col.now)())
        })
        .ok()
        .flatten();
    TimedGuard {
        active: start.map(|start| (phase, start)),
    }
}

/// Records its interval on drop. Obtained from [`timed`].
pub struct TimedGuard {
    active: Option<(HookPhase, Duration)>,
}

impl Drop for TimedGuard {
    fn drop(&mut self) {
        let Some((phase, start)) = self.active.take() else {
            return;
        };
        let _ = COLLECTOR.try_with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(col) = slot.as_mut() {
                col.depth[phase.idx()] -= 1;
                let nanos = (col.now)().saturating_sub(start).as_nanos();
                let nanos = if nanos > u64::MAX as u128 {
                    u64::MAX
                } else {
                    nanos as u64
                };
                col.intervals.push((phase, nanos));
            }
        });
    }
}

/// Take the intervals accumulated on the current thread since the last
/// drain. Empty when no collector is installed.
pub fn drain() -> Vec<(HookPhase, u64)> {
    COLLECTOR
        .try_with(|c| {
            c.borrow_mut()
                .as_mut()
                .map(|col| std::mem::take(&mut col.intervals))
                .unwrap_or_default()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // `enabled()` is process-global; serialize tests that assert on it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_is_inert() {
        let _l = LOCK.lock().unwrap();
        assert!(!enabled());
        {
            let _g = timed(HookPhase::Launch);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn collects_and_drains() {
        let _l = LOCK.lock().unwrap();
        let guard = collect(Box::new(|| Duration::ZERO));
        {
            let _g = timed(HookPhase::Compile);
        }
        {
            let _g = timed(HookPhase::Launch);
        }
        let got = drain();
        assert_eq!(got, vec![(HookPhase::Compile, 0), (HookPhase::Launch, 0)]);
        assert!(drain().is_empty());
        drop(guard);
        assert!(!enabled());
    }

    #[test]
    fn nested_same_phase_suppressed() {
        let _l = LOCK.lock().unwrap();
        let _guard = collect(Box::new(|| Duration::ZERO));
        {
            let _outer = timed(HookPhase::Launch);
            let _inner = timed(HookPhase::Launch);
        }
        assert_eq!(drain().len(), 1);
    }

    #[test]
    fn autotune_suppresses_probe_work() {
        let _l = LOCK.lock().unwrap();
        let _guard = collect(Box::new(|| Duration::ZERO));
        {
            let _sweep = timed(HookPhase::Autotune);
            {
                let _c = timed(HookPhase::Compile);
            }
            {
                let _l = timed(HookPhase::Launch);
            }
        }
        let got = drain();
        assert_eq!(got, vec![(HookPhase::Autotune, 0)]);
    }

    #[test]
    fn virtual_clock_durations_are_zero() {
        let _l = LOCK.lock().unwrap();
        let _guard = collect(Box::new(|| Duration::from_secs(42)));
        {
            let _g = timed(HookPhase::Launch);
        }
        assert_eq!(drain(), vec![(HookPhase::Launch, 0)]);
    }
}
