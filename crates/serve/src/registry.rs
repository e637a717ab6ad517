//! Process-wide compiled-artifact registry.
//!
//! The registry caches compiled artifacts — one type, [`insum::Compiled`],
//! a plan of steps: one step for a pairwise expression, one per pairwise
//! contraction for a multi-operand chain (spec-form strings and
//! 3-plus-factor dense statements, per [`is_chain_expression`], go
//! through the contraction planner; everything else through
//! [`insum_with`]) — keyed by (expression, argument metadata, compilation
//! options) and coalesces concurrent compilations of the same key into
//! one: the first caller compiles, every other caller blocks on the slot
//! and shares the resulting `Arc`. A chain compiles each pairwise step
//! through the same pipeline, so one chain artifact shared across tenants
//! compiles every step exactly once process-wide. Because the key fixes
//! every name, shape, dtype and option, two requests that resolve to the
//! same `Arc` are launch-compatible step for step; the scheduler groups
//! a window by that identity (plus the interpreter mode) alone. Layered
//! under it, the process-wide [`insum_inductor::ProgramCache`] dedups
//! the simulator lowering (and autotuning relaunches), so concurrent
//! tenants never re-lower the same program.
//!
//! Compilation is deterministic, so errors are cached alongside
//! successes: a second request with the same broken key fails fast
//! without re-running the pipeline. That containment extends to
//! *panics*: a compilation that panics is caught at this boundary and
//! the slot is filled with [`ServeError::Engine`] so concurrent waiters
//! wake instead of blocking on a forever-empty slot. Unlike
//! deterministic errors, though, a panic is treated as *transient* (an
//! injected fault or a compiler bug hit mid-flight): its entry is
//! evicted immediately after the slot fills, so a later attempt — in
//! particular a scheduler retry — recompiles instead of replaying the
//! cached panic forever.
//!
//! Like the [`insum_inductor::ProgramCache`] beneath it, the registry is
//! **bounded**: a long-lived server sees an open-ended stream of
//! distinct (expression, shapes, options) keys, so residency is capped
//! and the least-recently-used artifact is evicted on overflow.
//! Eviction only drops the registry's reference — in-flight requests
//! keep their `Arc<Compiled>` (or slot) alive — and a revisited key
//! simply recompiles.

use crate::engine::{panic_message, relock, rewait};
use crate::error::ServeError;
use crate::metrics::RegistryStats;
use insum::{insum_with, is_chain_expression, Compiled, InsumOptions, Tensor};
use insum_tensor::DType;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Default maximum resident artifacts (compiled kernels + plans are a
/// few KB each; this covers many concurrent tenants' working sets).
const DEFAULT_CAPACITY: usize = 256;

#[derive(Clone, PartialEq, Eq, Hash)]
struct ArtifactKey {
    expr: String,
    /// Name, shape, dtype of every bound tensor (shapes select the
    /// launch grid, so they are part of the artifact's identity).
    metas: Vec<(String, Vec<usize>, DType)>,
    /// Stable rendering of the compilation options, with host-side
    /// scheduling knobs normalized out (`sim_threads` never changes the
    /// compiled artifact).
    options: String,
}

impl ArtifactKey {
    fn new(expr: &str, tensors: &BTreeMap<String, Tensor>, options: &InsumOptions) -> ArtifactKey {
        let mut normalized = options.clone();
        normalized.sim_threads = None;
        ArtifactKey {
            expr: expr.to_string(),
            metas: tensors
                .iter()
                .map(|(n, t)| (n.clone(), t.shape().to_vec(), t.dtype()))
                .collect(),
            options: format!("{normalized:?}"),
        }
    }
}

/// One artifact slot: filled exactly once, waited on by every concurrent
/// caller of the same key.
#[derive(Default)]
struct Slot {
    state: Mutex<Option<Result<Arc<Compiled>, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, value: Result<Arc<Compiled>, ServeError>) {
        let mut state = relock(&self.state);
        *state = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<Compiled>, ServeError> {
        let mut state = relock(&self.state);
        while state.is_none() {
            state = rewait(&self.ready, state);
        }
        state.as_ref().expect("slot filled").clone()
    }
}

struct Entry {
    slot: Arc<Slot>,
    /// Recency stamp for LRU eviction (monotone per-registry counter).
    last_used: u64,
}

#[derive(Default)]
struct MapInner {
    map: HashMap<ArtifactKey, Entry>,
    tick: u64,
}

/// The registry. See the module docs.
pub(crate) struct ArtifactRegistry {
    inner: Mutex<MapInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ArtifactRegistry {
    fn default() -> ArtifactRegistry {
        ArtifactRegistry::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ArtifactRegistry {
    /// An empty registry holding at most `capacity` artifacts (clamped
    /// to at least 1).
    pub(crate) fn with_capacity(capacity: usize) -> ArtifactRegistry {
        ArtifactRegistry {
            inner: Mutex::new(MapInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch (or compile) the artifact for a request. The first returned
    /// flag is `true` on a registry hit — including a wait on a
    /// compilation already in flight — and `false` when this call
    /// compiled. The second flag is `true` when the compile lowered at
    /// least one new simulator program (autotuned options lower during
    /// the sweep); `false` leaves the miss's warm/cold classification to
    /// the artifact's first launch, where lazy lowering happens (see
    /// [`ArtifactRegistry::note_warm_miss`]).
    pub(crate) fn get_or_compile(
        &self,
        expr: &str,
        tensors: &BTreeMap<String, Tensor>,
        options: &InsumOptions,
    ) -> (Result<Arc<Compiled>, ServeError>, bool, bool) {
        let key = ArtifactKey::new(expr, tensors, options);
        let (slot, owner) = {
            let mut inner = relock(&self.inner);
            inner.tick += 1;
            let stamp = inner.tick;
            match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = stamp;
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    // LRU bound: evict until the new entry fits.
                    // Evicted in-flight slots stay alive through their
                    // waiters' Arcs.
                    while inner.map.len() >= self.capacity {
                        let Some(oldest) = inner
                            .map
                            .iter()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(k, _)| k.clone())
                        else {
                            break;
                        };
                        inner.map.remove(&oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let slot = Arc::new(Slot::default());
                    inner.map.insert(
                        key.clone(),
                        Entry {
                            slot: Arc::clone(&slot),
                            last_used: stamp,
                        },
                    );
                    (slot, true)
                }
            }
        };
        if owner {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // Compile outside every lock; waiters block on the slot, not
            // the registry, so other keys proceed concurrently. A panic
            // inside the compiler must be contained *here*: letting it
            // unwind would leave the slot forever unfilled — the next
            // same-key request would block the scheduler thread in
            // `Slot::wait`, wedging the whole engine — and would strand
            // the tickets of every other request in the drained window.
            // Program-cache lowering count before/after brackets the
            // compile: a miss that lowered zero new programs was served
            // entirely from resident (e.g. snapshot-seeded) programs.
            let compiles_before = insum_inductor::ProgramCache::global().stats().compiles;
            let compiled = match catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                crate::faults::maybe_panic_compile(expr);
                if is_chain_expression(expr) {
                    insum::plan(expr, tensors, options)
                } else {
                    insum_with(expr, tensors, options)
                }
            })) {
                Ok(result) => result.map(Arc::new).map_err(ServeError::from),
                Err(payload) => Err(ServeError::Engine(format!(
                    "compilation panicked: {}",
                    panic_message(payload)
                ))),
            };
            let compile_lowered =
                insum_inductor::ProgramCache::global().stats().compiles != compiles_before;
            slot.fill(compiled.clone());
            // A compile *panic* is transient: evict its entry (after the
            // fill, so every current waiter still wakes with the shared
            // error) and let the next attempt recompile. Deterministic
            // compile errors stay cached and keep failing fast.
            if matches!(compiled, Err(ServeError::Engine(_))) {
                relock(&self.inner).map.remove(&key);
            }
            (compiled, false, compile_lowered)
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            (slot.wait(), true, false)
        }
    }

    /// Record that a registry miss turned out warm: neither its compile
    /// nor its first launch lowered a new simulator program — every
    /// program was already resident in the process-wide
    /// [`insum_inductor::ProgramCache`] (e.g. snapshot-seeded). Called by
    /// the scheduler once the deferred classification resolves.
    pub(crate) fn note_warm_miss(&self) {
        self.warm_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: relock(&self.inner).map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_tensor::Tensor;

    fn tensors() -> BTreeMap<String, Tensor> {
        [
            ("C".to_string(), Tensor::zeros(vec![8])),
            ("A".to_string(), Tensor::ones(vec![8])),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn concurrent_lookups_share_one_compilation() {
        let registry = ArtifactRegistry::default();
        let t = tensors();
        let opts = InsumOptions::default();
        let artifacts: Vec<Arc<Compiled>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (registry, t, opts) = (&registry, &t, &opts);
                    scope.spawn(move || registry.get_or_compile("C[i] = A[i]", t, opts).0.unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &artifacts[1..] {
            assert!(
                Arc::ptr_eq(&artifacts[0], a),
                "all callers share the artifact"
            );
        }
        let s = registry.stats();
        assert_eq!(s.misses, 1, "exactly one compilation");
        assert_eq!(s.hits, 7);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn sim_threads_does_not_split_artifacts() {
        let registry = ArtifactRegistry::default();
        let t = tensors();
        let a = registry
            .get_or_compile("C[i] = A[i]", &t, &InsumOptions::default())
            .0
            .unwrap();
        let opts = InsumOptions {
            sim_threads: Some(3),
            ..Default::default()
        };
        let b = registry.get_or_compile("C[i] = A[i]", &t, &opts).0.unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.stats().entries, 1);
    }

    #[test]
    fn chain_expressions_compile_to_shared_chain_artifacts() {
        let registry = ArtifactRegistry::default();
        let t: BTreeMap<String, Tensor> = [
            ("op0".to_string(), Tensor::ones(vec![4, 3])),
            ("op1".to_string(), Tensor::ones(vec![3, 5])),
            ("op2".to_string(), Tensor::ones(vec![5, 2])),
        ]
        .into_iter()
        .collect();
        let opts = InsumOptions::default();
        let (a, hit_a, _) = registry.get_or_compile("ij,jk,kl->il", &t, &opts);
        let (b, hit_b, _) = registry.get_or_compile("ij,jk,kl->il", &t, &opts);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(a.plan().is_some());
        assert_eq!(a.step_count(), 2);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup shares the chain artifact"
        );
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(registry.stats().entries, 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used_artifact() {
        let registry = ArtifactRegistry::with_capacity(2);
        let t = tensors();
        let opts = InsumOptions::default();
        registry.get_or_compile("C[i] = A[i]", &t, &opts).0.unwrap();
        registry
            .get_or_compile("C[i] += A[i]", &t, &opts)
            .0
            .unwrap();
        // Touch the first so the second is the LRU victim.
        registry.get_or_compile("C[i] = A[i]", &t, &opts).0.unwrap();
        registry
            .get_or_compile("C[i] = A[i] * A[i]", &t, &opts)
            .0
            .unwrap();
        let s = registry.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 3, 1, 2));
        // The evicted key recompiles; the survivor still hits.
        registry.get_or_compile("C[i] = A[i]", &t, &opts).0.unwrap();
        registry
            .get_or_compile("C[i] += A[i]", &t, &opts)
            .0
            .unwrap();
        let s = registry.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (2, 4, 2, 2));
    }

    #[test]
    fn errors_are_cached() {
        let registry = ArtifactRegistry::default();
        let t = tensors();
        let opts = InsumOptions::default();
        assert!(registry
            .get_or_compile("C[i] ?= A[i]", &t, &opts)
            .0
            .is_err());
        let (second, hit, _) = registry.get_or_compile("C[i] ?= A[i]", &t, &opts);
        assert!(second.is_err());
        assert!(hit, "second failure served from the registry");
        assert_eq!(registry.stats().misses, 1);
    }
}
