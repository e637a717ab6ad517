//! Compilation options — the ablation axes of paper Fig. 13.

use crate::error::InsumError;
use insum_gpu::DeviceModel;

/// Options controlling how an indirect Einsum is compiled and executed.
#[derive(Debug, Clone, PartialEq)]
pub struct InsumOptions {
    /// Fuse gather + contraction + scatter into one kernel (the paper's
    /// extended Inductor). `false` reproduces stock TorchInductor: one
    /// kernel per graph node with materialized intermediates.
    pub fuse: bool,
    /// Serve statements whose index structure matches a view row of the
    /// [`insum_pattern`] recognition table (transpose, diagonal) as
    /// zero-copy stride views instead of generating and interpreting a
    /// copy kernel. Every statement that computes takes the general
    /// lowering either way, so this chooses only between a view and the
    /// general kernel; `false` forces every statement through the general
    /// lowering (the bit-identity oracle). Ignored when `fuse` is
    /// `false`: the unfused ablation always reproduces stock Inductor.
    pub fast_path: bool,
    /// Emit `ops.dot`/`tl.dot` (Tensor Cores) when a legal partition
    /// exists.
    pub tensor_cores: bool,
    /// Lazy broadcasting (§5.2.3); `false` pays eager reshape/transpose
    /// shared-memory traffic before every dot.
    pub lazy_broadcast: bool,
    /// Sweep tile configurations with analytic launches and keep the
    /// fastest (PyTorch-autotuner analogue; only affects fused kernels).
    pub autotune: bool,
    /// Fixed Y tile (rows); `None` = heuristic/autotuned.
    pub yblock: Option<usize>,
    /// Fixed X tile (columns); `None` = heuristic/autotuned.
    pub xblock: Option<usize>,
    /// Fixed R tile (reduction); `None` = heuristic/autotuned.
    pub rblock: Option<usize>,
    /// The simulated device.
    pub device: DeviceModel,
    /// Host threads for the simulator's grid-instance loop; `None` =
    /// auto (`INSUM_SIM_THREADS` or the machine's parallelism). Results
    /// are bit-identical for every setting; see
    /// [`insum_gpu::LaunchOptions`].
    pub sim_threads: Option<usize>,
}

impl Default for InsumOptions {
    fn default() -> InsumOptions {
        InsumOptions {
            fuse: true,
            fast_path: true,
            tensor_cores: true,
            lazy_broadcast: true,
            autotune: false,
            yblock: None,
            xblock: None,
            rblock: None,
            device: DeviceModel::rtx3090(),
            sim_threads: None,
        }
    }
}

impl InsumOptions {
    /// The full paper configuration plus autotuning (used by Table 3).
    pub fn autotuned() -> InsumOptions {
        InsumOptions {
            autotune: true,
            ..Default::default()
        }
    }

    /// Stock-TorchInductor configuration (ablation rows 1–3 of Fig. 13):
    /// separate gather/matmul/scatter kernels.
    pub fn unfused() -> InsumOptions {
        InsumOptions {
            fuse: false,
            ..Default::default()
        }
    }

    /// Check the options for configurations that would otherwise degrade
    /// silently. Called by [`crate::insum_with`] before compiling (and by
    /// the serving engine on admission), so a misconfiguration surfaces
    /// as a clear error instead of an implicit fallback.
    ///
    /// # Errors
    ///
    /// [`InsumError::Config`] if `sim_threads` is `Some(0)`: the
    /// simulator's host-thread count must be at least 1 (`None` selects
    /// the automatic resolution described on
    /// [`insum_gpu::LaunchOptions`]).
    pub fn validate(&self) -> Result<(), InsumError> {
        if self.sim_threads == Some(0) {
            return Err(InsumError::Config(
                "sim_threads = Some(0): the simulator needs at least one host \
                 thread; use None for automatic resolution"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// The simulator scheduling options these compilation options imply.
    /// This is the conversion point guarded by
    /// [`InsumOptions::validate`]; a `sim_threads` of `Some(0)` is
    /// rejected there rather than silently clamped here.
    pub fn launch_options(&self) -> insum_gpu::LaunchOptions {
        insum_gpu::LaunchOptions {
            threads: self.sim_threads,
            ..Default::default()
        }
    }

    pub(crate) fn codegen(&self) -> insum_inductor::CodegenOptions {
        insum_inductor::CodegenOptions {
            tensor_cores: self.tensor_cores,
            lazy_broadcast: self.lazy_broadcast,
            yblock: self.yblock,
            xblock: self.xblock,
            rblock: self.rblock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = InsumOptions::default();
        assert!(o.fuse && o.fast_path && o.tensor_cores && o.lazy_broadcast);
        assert!(!o.autotune);
    }

    #[test]
    fn presets() {
        assert!(InsumOptions::autotuned().autotune);
        assert!(!InsumOptions::unfused().fuse);
    }

    #[test]
    fn zero_sim_threads_is_a_config_error() {
        let opts = InsumOptions {
            sim_threads: Some(0),
            ..Default::default()
        };
        assert!(matches!(opts.validate(), Err(InsumError::Config(_))));
        assert!(InsumOptions::default().validate().is_ok());
        let one = InsumOptions {
            sim_threads: Some(1),
            ..Default::default()
        };
        assert!(one.validate().is_ok());
        assert_eq!(one.launch_options().threads, Some(1));
    }
}
