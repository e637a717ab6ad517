//! Scheduler-side lifecycle policy: per-tenant cost budgets and the
//! circuit breaker.
//!
//! Both structures are owned by the scheduler core (a plain state
//! machine): every admission/charge decision happens at a deterministic
//! point in the scheduling order, fed by the simulator's bit-exact
//! per-launch cost counters ([`insum::Profile::total_cost_units`]), so
//! budget and quarantine outcomes are replayable given the same request
//! stream and clock.

use crate::config::CostBudget;
use std::collections::BTreeMap;
use std::time::Duration;

/// Budget balances are tracked in *scaled* units: one cost unit equals
/// `COST_SCALE` scaled units, so refill (`refill_per_second × elapsed`)
/// is exact integer math at nanosecond resolution — no float drift, no
/// rounding dependence on how often the meter is polled.
const COST_SCALE: i128 = 1_000_000_000;

/// Where a tenant stands against its budget right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BudgetStatus {
    /// No budget configured for this tenant (and no default): never
    /// deprioritized or rejected, but still metered for fairness.
    Unlimited,
    /// In budget: schedule normally.
    Ok,
    /// Balance overdrawn (a charge ran past zero): still served, but
    /// after every in-budget tenant.
    Deprioritized,
    /// Overdrawn past a full capacity: reject with
    /// [`crate::ServeError::BudgetExhausted`] until refill catches up.
    Exhausted,
}

#[derive(Debug)]
struct TenantMeter {
    budget: Option<CostBudget>,
    /// Scaled balance; may go negative (a request is never split, so the
    /// launch that crosses zero overdraws).
    balance: i128,
    last_refill: Duration,
    /// Lifetime cost units charged — the deficit-weighted fair-queueing
    /// key (tenants that have consumed less go first).
    charged_units: u64,
}

impl TenantMeter {
    fn refill(&mut self, now: Duration) {
        let Some(budget) = self.budget else {
            return;
        };
        let dt = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        let gain = i128::from(budget.refill_per_second) * i128::from(dt.as_nanos() as u64);
        let cap = i128::from(budget.capacity) * COST_SCALE;
        self.balance = (self.balance + gain).min(cap);
    }
}

/// Per-tenant token-bucket cost meter (owned by the scheduler core).
///
/// Charges are the simulator's deterministic per-launch cost units; the
/// bucket refills continuously at `refill_per_second` up to `capacity`.
/// Tenants with no configured budget are [`BudgetStatus::Unlimited`] but
/// still accumulate `charged_units` so fair ordering covers them too.
#[derive(Debug)]
pub(crate) struct CostMeter {
    budgets: BTreeMap<String, CostBudget>,
    default_budget: Option<CostBudget>,
    tenants: BTreeMap<String, TenantMeter>,
}

impl CostMeter {
    pub(crate) fn new(
        budgets: BTreeMap<String, CostBudget>,
        default_budget: Option<CostBudget>,
    ) -> CostMeter {
        CostMeter {
            budgets,
            default_budget,
            tenants: BTreeMap::new(),
        }
    }

    fn tenant(&mut self, tenant: &str, now: Duration) -> &mut TenantMeter {
        if !self.tenants.contains_key(tenant) {
            let budget = self.budgets.get(tenant).copied().or(self.default_budget);
            self.tenants.insert(
                tenant.to_string(),
                TenantMeter {
                    budget,
                    // A new tenant starts with a full bucket.
                    balance: budget.map_or(0, |b| i128::from(b.capacity) * COST_SCALE),
                    last_refill: now,
                    charged_units: 0,
                },
            );
        }
        self.tenants.get_mut(tenant).expect("just inserted")
    }

    /// The tenant's standing at `now` (refills first).
    pub(crate) fn status(&mut self, tenant: &str, now: Duration) -> BudgetStatus {
        let meter = self.tenant(tenant, now);
        meter.refill(now);
        let Some(budget) = meter.budget else {
            return BudgetStatus::Unlimited;
        };
        if meter.balance >= 0 {
            BudgetStatus::Ok
        } else if meter.balance > -(i128::from(budget.capacity) * COST_SCALE) {
            BudgetStatus::Deprioritized
        } else {
            BudgetStatus::Exhausted
        }
    }

    /// Charge `units` of executed cost to `tenant`.
    pub(crate) fn charge(&mut self, tenant: &str, units: u64, now: Duration) {
        let meter = self.tenant(tenant, now);
        meter.refill(now);
        meter.charged_units = meter.charged_units.saturating_add(units);
        if meter.budget.is_some() {
            meter.balance -= i128::from(units) * COST_SCALE;
        }
    }

    /// Lifetime units charged — the fair-queueing sort key.
    pub(crate) fn charged(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |m| m.charged_units)
    }
}

/// One tenant's circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Quarantined until the cooldown elapses; requests are rejected
    /// with [`crate::ServeError::Quarantined`].
    Open { until: Duration },
    /// Cooldown elapsed: exactly one probe request is in flight; its
    /// outcome decides between reopening and closing.
    HalfOpen,
}

/// What the breaker says about scheduling one request now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Schedule normally.
    Allow,
    /// Quarantine is active: reject.
    Reject,
}

#[derive(Debug)]
struct TenantBreaker {
    state: BreakerState,
    /// Consecutive breaker-relevant failures while closed.
    consecutive_failures: u32,
}

/// Per-tenant circuit breaker (owned by the scheduler core).
///
/// `threshold` consecutive panics/timeouts open the breaker for
/// `cooldown`; after the cooldown one probe request is let through
/// (half-open) — success closes the breaker, failure reopens it for
/// another cooldown. `threshold == 0` disables the breaker entirely.
#[derive(Debug)]
pub(crate) struct BreakerPanel {
    threshold: u32,
    cooldown: Duration,
    tenants: BTreeMap<String, TenantBreaker>,
}

impl BreakerPanel {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> BreakerPanel {
        BreakerPanel {
            threshold,
            cooldown,
            tenants: BTreeMap::new(),
        }
    }

    fn tenant(&mut self, tenant: &str) -> &mut TenantBreaker {
        if !self.tenants.contains_key(tenant) {
            self.tenants.insert(
                tenant.to_string(),
                TenantBreaker {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                },
            );
        }
        self.tenants.get_mut(tenant).expect("just inserted")
    }

    /// May a request from `tenant` be scheduled at `now`? Transitions
    /// `Open → HalfOpen` when the cooldown has elapsed (the admitted
    /// request becomes the probe).
    pub(crate) fn admit(&mut self, tenant: &str, now: Duration) -> BreakerDecision {
        if self.threshold == 0 {
            return BreakerDecision::Allow;
        }
        let b = self.tenant(tenant);
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => BreakerDecision::Allow,
            BreakerState::Open { until } => {
                if now >= until {
                    b.state = BreakerState::HalfOpen;
                    BreakerDecision::Allow
                } else {
                    BreakerDecision::Reject
                }
            }
        }
    }

    /// A request from `tenant` completed successfully: close the breaker
    /// and reset the failure streak.
    pub(crate) fn record_success(&mut self, tenant: &str) {
        if self.threshold == 0 {
            return;
        }
        let b = self.tenant(tenant);
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
    }

    /// A breaker-relevant failure (terminal panic or deadline expiry)
    /// from `tenant`. Returns `true` when this failure *opened* the
    /// breaker (for the transition metric).
    pub(crate) fn record_failure(&mut self, tenant: &str, now: Duration) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let threshold = self.threshold;
        let cooldown = self.cooldown;
        let b = self.tenant(tenant);
        match b.state {
            // A failed probe reopens immediately.
            BreakerState::HalfOpen => {
                b.state = BreakerState::Open {
                    until: now + cooldown,
                };
                true
            }
            BreakerState::Closed => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= threshold {
                    b.state = BreakerState::Open {
                        until: now + cooldown,
                    };
                    b.consecutive_failures = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn meter_charges_refills_and_classifies() {
        let budgets = [(
            "t".to_string(),
            CostBudget {
                capacity: 10,
                refill_per_second: 2,
            },
        )]
        .into_iter()
        .collect();
        let mut m = CostMeter::new(budgets, None);
        assert_eq!(m.status("t", secs(0)), BudgetStatus::Ok);
        assert_eq!(m.status("other", secs(0)), BudgetStatus::Unlimited);

        // Spend the full bucket plus a little: deprioritized.
        m.charge("t", 12, secs(0));
        assert_eq!(m.status("t", secs(0)), BudgetStatus::Deprioritized);
        assert_eq!(m.charged("t"), 12);

        // Overdraw a full capacity below zero: exhausted.
        m.charge("t", 8, secs(0));
        assert_eq!(m.status("t", secs(0)), BudgetStatus::Exhausted);

        // Refill at 2 units/s: after 5s the balance is back to 0 (Ok).
        assert_eq!(m.status("t", secs(5)), BudgetStatus::Ok);
        // The bucket caps at capacity: a long sleep can't bank more.
        assert_eq!(m.status("t", secs(10_000)), BudgetStatus::Ok);
        m.charge("t", 10, secs(10_000));
        assert_eq!(m.status("t", secs(10_000)), BudgetStatus::Ok);
        m.charge("t", 1, secs(10_000));
        assert_eq!(m.status("t", secs(10_000)), BudgetStatus::Deprioritized);

        // Unlimited tenants still accumulate the fairness key.
        m.charge("other", 7, secs(0));
        assert_eq!(m.charged("other"), 7);
        assert_eq!(m.status("other", secs(0)), BudgetStatus::Unlimited);
    }

    #[test]
    fn refill_is_exact_integer_math() {
        let budgets = [(
            "t".to_string(),
            CostBudget {
                capacity: 1_000_000,
                refill_per_second: 3,
            },
        )]
        .into_iter()
        .collect();
        let mut m = CostMeter::new(budgets, None);
        m.charge("t", 1_000_000, secs(0));
        // 1e9 refills of 1ns each must equal one refill of 1s exactly.
        for i in 1..=1_000 {
            let _ = m.status("t", Duration::from_micros(i));
        }
        let meter = m.tenants.get("t").unwrap();
        assert_eq!(meter.balance, 3 * COST_SCALE / 1_000);
    }

    #[test]
    fn breaker_opens_probes_and_recovers() {
        let mut b = BreakerPanel::new(2, secs(10));
        assert_eq!(b.admit("t", secs(0)), BreakerDecision::Allow);
        assert!(!b.record_failure("t", secs(0)));
        // Second consecutive failure trips it.
        assert!(b.record_failure("t", secs(1)));
        assert_eq!(b.admit("t", secs(2)), BreakerDecision::Reject);
        // Cooldown elapsed: half-open probe admitted.
        assert_eq!(b.admit("t", secs(11)), BreakerDecision::Allow);
        // Probe fails: reopens (counts as a transition).
        assert!(b.record_failure("t", secs(11)));
        assert_eq!(b.admit("t", secs(12)), BreakerDecision::Reject);
        // Next probe succeeds: closed, streak reset.
        assert_eq!(b.admit("t", secs(22)), BreakerDecision::Allow);
        b.record_success("t");
        assert_eq!(b.admit("t", secs(22)), BreakerDecision::Allow);
        assert!(!b.record_failure("t", secs(23)));

        // Threshold 0 disables everything.
        let mut off = BreakerPanel::new(0, secs(10));
        for i in 0..100 {
            assert!(!off.record_failure("t", secs(i)));
        }
        assert_eq!(off.admit("t", secs(0)), BreakerDecision::Allow);
    }
}
