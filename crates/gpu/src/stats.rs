//! Cost counters and timing reports.

use crate::device::DeviceModel;
use std::fmt;

/// Aggregate counters for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelStats {
    /// Program instances executed.
    pub instances: u64,
    /// 32-byte sectors read that missed the kernel-resident L2 (DRAM reads).
    pub dram_read_sectors: u64,
    /// 32-byte sectors written through to DRAM.
    pub dram_write_sectors: u64,
    /// Total 32-byte sector read transactions (L2 level).
    pub l2_read_sectors: u64,
    /// Total 32-byte sector write transactions (L2 level).
    pub l2_write_sectors: u64,
    /// FP16 Tensor Core FLOPs (from `tl.dot`).
    pub flops_tc_f16: u64,
    /// FP32/TF32 Tensor Core FLOPs (from `tl.dot`).
    pub flops_tc_f32: u64,
    /// Scalar ALU FLOPs (block arithmetic and reductions).
    pub flops_scalar: u64,
    /// Shared-memory bytes moved by `view`/`trans`/`broadcast_to`.
    pub smem_bytes: u64,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Excess colliding atomics (sum over addresses of `count - 1`).
    pub atomic_conflicts: u64,
    /// Dynamic instructions executed (across all instances).
    pub instructions: u64,
}

impl KernelStats {
    /// Total bytes that reached DRAM.
    pub fn dram_bytes(&self) -> u64 {
        32 * (self.dram_read_sectors + self.dram_write_sectors)
    }

    /// Deterministic abstract cost of this launch, in dimensionless
    /// "cost units": dynamic instructions plus an 8× weight on DRAM
    /// sector traffic plus atomics. The counters are bit-exact outputs
    /// of the simulator, so the same launch always costs the same —
    /// which is what lets serving-layer accounting (per-tenant budgets,
    /// fair scheduling) be replayable instead of probabilistic.
    pub fn cost_units(&self) -> u64 {
        self.instructions
            .saturating_add(8 * (self.dram_read_sectors + self.dram_write_sectors))
            .saturating_add(self.atomics)
    }
}

/// Timing and counters for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Launch grid.
    pub grid: Vec<usize>,
    /// Aggregate counters.
    pub stats: KernelStats,
    /// Simulated wall time of this launch, seconds (includes launch
    /// overhead).
    pub time: f64,
    /// The parallel (SM) component of the time, seconds.
    pub sm_time: f64,
    /// The DRAM/atomic component of the time, seconds.
    pub dram_time: f64,
    /// The longest single program instance, seconds (load-imbalance floor).
    pub max_instance_time: f64,
}

impl fmt::Display for KernelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} grid={:?} time={:.3}us dram={}B tc16={} tc32={} alu={} atomics={}(+{} conf)",
            self.name,
            self.grid,
            self.time * 1e6,
            self.stats.dram_bytes(),
            self.stats.flops_tc_f16,
            self.stats.flops_tc_f32,
            self.stats.flops_scalar,
            self.stats.atomics,
            self.stats.atomic_conflicts,
        )
    }
}

/// A sequence of kernel launches forming one measured operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-launch reports, in execution order.
    pub reports: Vec<KernelReport>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Append a launch.
    pub fn push(&mut self, report: KernelReport) {
        self.reports.push(report);
    }

    /// Total simulated time, seconds (launches execute back-to-back).
    pub fn total_time(&self) -> f64 {
        self.reports.iter().map(|r| r.time).sum()
    }

    /// Number of kernel launches.
    pub fn launches(&self) -> usize {
        self.reports.len()
    }

    /// Sum a counter across launches.
    pub fn total_stats(&self) -> KernelStats {
        let mut out = KernelStats::default();
        for r in &self.reports {
            out.instances += r.stats.instances;
            out.dram_read_sectors += r.stats.dram_read_sectors;
            out.dram_write_sectors += r.stats.dram_write_sectors;
            out.l2_read_sectors += r.stats.l2_read_sectors;
            out.l2_write_sectors += r.stats.l2_write_sectors;
            out.flops_tc_f16 += r.stats.flops_tc_f16;
            out.flops_tc_f32 += r.stats.flops_tc_f32;
            out.flops_scalar += r.stats.flops_scalar;
            out.smem_bytes += r.stats.smem_bytes;
            out.atomics += r.stats.atomics;
            out.atomic_conflicts += r.stats.atomic_conflicts;
            out.instructions += r.stats.instructions;
        }
        out
    }

    /// Total [`KernelStats::cost_units`] across all launches.
    pub fn total_cost_units(&self) -> u64 {
        self.reports
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.stats.cost_units()))
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} launches, {:.3} us total",
            self.launches(),
            self.total_time() * 1e6
        )?;
        for r in &self.reports {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Combine per-instance costs into a launch time using the device model.
///
/// `instance_times` are per-program compute/memory times. Programs are
/// assigned to SMs by *arrival-order list scheduling* (each program goes
/// to the earliest-free SM, in launch order), which is how real GPUs
/// dispatch thread blocks. This makes program ordering matter: a skewed
/// workload whose long programs arrive late leaves a straggler tail,
/// while sorting long programs first (Sputnik's row-swizzle strategy)
/// packs tightly. The kernel time is the max of that makespan and the
/// DRAM + atomic serialization time, plus the fixed launch overhead.
pub(crate) fn combine_times(
    device: &DeviceModel,
    instance_times: &[f64],
    dram_time: f64,
) -> (f64, f64, f64) {
    let s_used = instance_times.len().min(device.num_sms).max(1);
    let sm_time = if instance_times.len() <= s_used {
        instance_times.iter().copied().fold(0.0, f64::max)
    } else {
        // Earliest-free-SM assignment via a min-heap of SM finish times.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        #[derive(PartialEq)]
        struct F(f64);
        impl Eq for F {}
        impl PartialOrd for F {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for F {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .partial_cmp(&other.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        let mut heap: BinaryHeap<Reverse<F>> = (0..s_used).map(|_| Reverse(F(0.0))).collect();
        for &t in instance_times {
            let Reverse(F(free_at)) = heap.pop().expect("heap holds one entry per SM");
            heap.push(Reverse(F(free_at + t)));
        }
        heap.into_iter().map(|Reverse(F(t))| t).fold(0.0, f64::max)
    };
    (launch_time(device, sm_time, dram_time), sm_time, dram_time)
}

/// The one definition of a launch's simulated time: the SM makespan and
/// the DRAM + atomic serialization overlap, after the fixed overhead.
fn launch_time(device: &DeviceModel, sm_time: f64, dram_time: f64) -> f64 {
    device.launch_overhead + sm_time.max(dram_time)
}

/// Simulated time of a launch whose `instances` program instances each
/// take `instance_time` seconds on an SM, against a given `dram_time`.
///
/// Equal instances fill the SMs in waves, so the busiest SM runs
/// `⌈instances / num_sms⌉` of them back to back — accumulated here by the
/// same repeated addition as the scheduler's, which makes the result
/// bit-equal to a launch reporting `instances` times `instance_time` and
/// this `dram_time`. The kernels the code generator emits for
/// fixed-length formats (GroupCOO, BlockGroupCOO, dense tiles) are such
/// launches up to their masked edge tiles, which is what lets
/// `insum_inductor`'s autotuner rank a tile space from the
/// [`KernelReport::sm_time`] of one-instance launches.
pub fn uniform_launch_time(
    device: &DeviceModel,
    instances: usize,
    instance_time: f64,
    dram_time: f64,
) -> f64 {
    let waves = instances.div_ceil(device.num_sms.max(1));
    let sm_time = (0..waves).fold(0.0, |busy, _| busy + instance_time);
    launch_time(device, sm_time, dram_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_totals() {
        let mut p = Profile::new();
        let mk = |t: f64, atomics: u64| KernelReport {
            name: "k".into(),
            grid: vec![1],
            stats: KernelStats {
                atomics,
                ..Default::default()
            },
            time: t,
            sm_time: t,
            dram_time: 0.0,
            max_instance_time: t,
        };
        p.push(mk(1e-6, 5));
        p.push(mk(2e-6, 7));
        assert!((p.total_time() - 3e-6).abs() < 1e-12);
        assert_eq!(p.launches(), 2);
        assert_eq!(p.total_stats().atomics, 12);
    }

    #[test]
    fn combine_times_balances() {
        let d = DeviceModel::rtx3090();
        // 82 instances of 1us each on 82 SMs -> ~1us + launch overhead.
        let times = vec![1e-6; 82];
        let (t, sm, _) = combine_times(&d, &times, 0.0);
        assert!((sm - 1e-6).abs() < 1e-9);
        assert!(t >= d.launch_overhead + 1e-6);
    }

    #[test]
    fn uniform_launch_time_is_the_scheduler_on_equal_instances() {
        let d = DeviceModel::rtx3090();
        for n in [0, 1, 81, 82, 83, 164, 165, 1000, 4097] {
            for (t, dram) in [(1.3e-6, 0.0), (7.7e-7, 2e-5), (3.1e-6, 1.0)] {
                let (want, ..) = combine_times(&d, &vec![t; n], dram);
                assert_eq!(uniform_launch_time(&d, n, t, dram), want, "n = {n}");
            }
        }
    }

    #[test]
    fn combine_times_respects_straggler() {
        let d = DeviceModel::rtx3090();
        // One huge instance dominates even with thousands of tiny ones.
        let mut times = vec![1e-9; 10_000];
        times.push(5e-5);
        let (_, sm, _) = combine_times(&d, &times, 0.0);
        assert!(sm >= 5e-5);
    }

    #[test]
    fn combine_times_dram_bound() {
        let d = DeviceModel::rtx3090();
        let (t, _, dram) = combine_times(&d, &[1e-9], 1e-3);
        assert_eq!(dram, 1e-3);
        assert!(t >= 1e-3);
    }

    #[test]
    fn stats_byte_helpers() {
        let s = KernelStats {
            dram_read_sectors: 2,
            dram_write_sectors: 1,
            l2_read_sectors: 4,
            l2_write_sectors: 0,
            ..Default::default()
        };
        assert_eq!(s.dram_bytes(), 96);
    }

    #[test]
    fn cost_units_weight_instructions_dram_and_atomics() {
        let s = KernelStats {
            instructions: 100,
            dram_read_sectors: 3,
            dram_write_sectors: 2,
            atomics: 7,
            ..Default::default()
        };
        assert_eq!(s.cost_units(), 100 + 8 * 5 + 7);

        let mut p = Profile::new();
        for _ in 0..2 {
            p.push(KernelReport {
                name: "k".into(),
                grid: vec![1],
                stats: s,
                time: 1e-6,
                sm_time: 1e-6,
                dram_time: 0.0,
                max_instance_time: 1e-6,
            });
        }
        assert_eq!(p.total_cost_units(), 2 * s.cost_units());
    }
}
