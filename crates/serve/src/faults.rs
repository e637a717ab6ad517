//! Test-only fault injection, compiled only under the `fault-injection`
//! feature (enabled by this crate's own tests through a self
//! dev-dependency), so release builds carry neither the hooks nor their
//! per-batch checks.
//!
//! Two layers coexist:
//!
//! * **Targeted faults** — panic a named tenant's batches at the
//!   execution boundary ([`set_panic_tenant`]) or a named expression
//!   inside the compile boundary ([`set_panic_compile_expr`]),
//!   simulating simulator/compiler bugs so the panic-isolation and
//!   lock-recovery paths can be exercised end to end.
//! * **A seeded chaos plan** ([`FaultPlan`], installed with
//!   [`set_plan`]) — deterministic pseudo-random execute panics,
//!   compile panics, injected latency, and budget spikes. Execute-side
//!   decisions are pure functions of `(seed, request id, attempt)`, so
//!   a faulted attempt faults on every replay while its retry can
//!   deterministically succeed; compile-side decisions key on a global
//!   compile-attempt counter so a recompile after an evicted panic
//!   entry rolls fresh.

use crate::engine::relock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PANIC_TENANT: Mutex<Option<String>> = Mutex::new(None);
static PANIC_COMPILE_EXPR: Mutex<Option<String>> = Mutex::new(None);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static COMPILE_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

/// A seeded, deterministic chaos plan. Every rate is per-mille
/// (`0..=1000`); a zeroed plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Per-mille chance an execution attempt panics.
    pub exec_panic_per_mille: u16,
    /// Per-mille chance a compile attempt panics (keyed by a global
    /// compile-attempt counter, so retries recompile cleanly).
    pub compile_panic_per_mille: u16,
    /// Per-mille chance a request's launch sees injected latency.
    pub latency_per_mille: u16,
    /// The injected latency, in engine-clock time.
    pub latency: Duration,
    /// Per-mille chance a request's charged cost spikes.
    pub budget_spike_per_mille: u16,
    /// Extra cost units charged on a spike.
    pub budget_spike_units: u64,
}

/// Arm (or with `None` disarm) the execution-boundary fault: any
/// batch containing a request from this tenant panics.
pub fn set_panic_tenant(tenant: Option<&str>) {
    *relock(&PANIC_TENANT) = tenant.map(str::to_string);
    rearm();
}

/// Arm (or with `None` disarm) the compile-boundary fault: compiling
/// this exact expression panics.
pub fn set_panic_compile_expr(expr: Option<&str>) {
    *relock(&PANIC_COMPILE_EXPR) = expr.map(str::to_string);
    rearm();
}

/// Install (or with `None` clear) the chaos plan. Resets the
/// compile-attempt counter so runs replay from a clean slate.
pub fn set_plan(plan: Option<FaultPlan>) {
    *relock(&PLAN) = plan;
    COMPILE_ATTEMPTS.store(0, Ordering::Relaxed);
    rearm();
}

fn rearm() {
    let armed = relock(&PANIC_TENANT).is_some()
        || relock(&PANIC_COMPILE_EXPR).is_some()
        || relock(&PLAN).is_some();
    ACTIVE.store(armed, Ordering::Relaxed);
}

fn plan() -> Option<FaultPlan> {
    if ACTIVE.load(Ordering::Relaxed) {
        *relock(&PLAN)
    } else {
        None
    }
}

/// SplitMix64-style mix of the seed and decision coordinates.
fn decision(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn roll(plan: &FaultPlan, per_mille: u16, a: u64, b: u64, salt: u64) -> bool {
    per_mille > 0 && decision(plan.seed, a, b, salt) % 1000 < u64::from(per_mille)
}

pub(crate) fn panic_tenant() -> Option<String> {
    if ACTIVE.load(Ordering::Relaxed) {
        relock(&PANIC_TENANT).clone()
    } else {
        None
    }
}

pub(crate) fn exec_panic(id: u64, attempt: u32) -> bool {
    plan().is_some_and(|p| roll(&p, p.exec_panic_per_mille, id, u64::from(attempt), 1))
}

pub(crate) fn exec_latency(id: u64, attempt: u32) -> Option<Duration> {
    let p = plan()?;
    if roll(&p, p.latency_per_mille, id, u64::from(attempt), 2) {
        Some(p.latency)
    } else {
        None
    }
}

pub(crate) fn budget_spike(id: u64) -> u64 {
    plan().map_or(0, |p| {
        if roll(&p, p.budget_spike_per_mille, id, 0, 3) {
            p.budget_spike_units
        } else {
            0
        }
    })
}

pub(crate) fn maybe_panic_compile(expr: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if relock(&PANIC_COMPILE_EXPR).as_deref() == Some(expr) {
        panic!("injected compile fault for expression {expr:?}");
    }
    if let Some(p) = *relock(&PLAN) {
        let n = COMPILE_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
        if roll(&p, p.compile_panic_per_mille, n, 0, 4) {
            panic!("injected chaos compile fault (compile attempt {n})");
        }
    }
}
