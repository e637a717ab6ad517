//! Einsum pattern classification for fast-path dispatch.
//!
//! The general indirect-einsum lowering (crates/gpu) can execute *every*
//! contraction, but production engines win the common case by recognizing
//! it: a transpose is a stride permutation, a row sum is a tight loop.
//! This crate is the recognition layer — a pure, dependency-free function
//! from the *index structure* of an einsum (its input terms and output
//! term) to a [`Pattern`] — and, through [`Pattern::is_fast`], the one
//! place that says which patterns have a dedicated execution target.
//!
//! # Recognition table
//!
//! Index names below are canonical placeholders; classification is
//! structural, so any names that are equal/distinct in the same positions
//! classify identically. The last column says how a recognized statement
//! runs: on a fast path (`insum_gpu::run_micro`: a stride view or a
//! microkernel) or through the general lowering, whose `tl.dot` kernel
//! *is* the dense contraction.
//!
//! | Spec shape                | Pattern                  | Extracted dims | Lowered by |
//! |---------------------------|--------------------------|----------------|------------|
//! | `a…z -> permutation`      | [`Pattern::Transpose`]   | `perm[d]` = input axis feeding output axis `d` | stride view |
//! | `a…z -> ordered subset`   | [`Pattern::Reduction`]   | `axes` = input axes summed away | microkernel |
//! | `aa -> a`                 | [`Pattern::Diagonal`]    | — | stride view |
//! | `aa ->`                   | [`Pattern::Trace`]       | — | microkernel |
//! | `ab,bc -> ac`             | [`Pattern::Matmul`]      | — | general |
//! | `gab,gbc -> gac`          | [`Pattern::BatchedMatmul`] | — | general |
//! | `T,T -> T` (same term)    | [`Pattern::Hadamard`]    | — | microkernel |
//! | `a,b -> ab`               | [`Pattern::Outer`]       | — | microkernel |
//! | `a,a ->`                  | [`Pattern::Dot`]         | — | general |
//! | anything else             | [`Pattern::General`]     | — | general |
//!
//! The identity copy `ab -> ab` is a [`Pattern::Transpose`] with the
//! identity permutation. The three dense contractions are still
//! classified, so [`classify_terms`] keeps one answer for every statement
//! (perfbench's layer trace classifies each one); they have no
//! microkernel because the general lowering already runs them as one
//! `tl.dot` kernel, with the simulated time of that kernel.
//!
//! # Fallback guarantee
//!
//! Classification is *conservative*: a spec is only assigned a non-general
//! pattern when it matches one of the rows above exactly. Near misses —
//! repeated indices outside the `aa` forms, broadcast dims (an output
//! index absent from every input), out-of-order reductions like
//! `ijk -> ji`, three or more operands, transposed Hadamard `ij,ji -> ij`,
//! matvec `ij,j -> i` — all classify as [`Pattern::General`] and run
//! through the full lowering. The general path therefore remains the
//! bit-identity oracle: for every pattern with a fast path the dedicated
//! execution must produce bit-identical results to the general lowering,
//! and everything else *is* the general lowering.

/// The canonical contraction shapes the classifier recognizes.
///
/// See the crate docs for the recognition table. `Transpose` and
/// `Reduction` carry the extracted axis structure; the remaining
/// patterns fix their axis roles by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `ab,bc -> ac`: plain 2-D matrix multiply.
    Matmul,
    /// `gab,gbc -> gac`: matmul with one shared leading batch axis.
    BatchedMatmul,
    /// Single operand, output a permutation of the input indices.
    /// `perm[d]` is the input axis that feeds output axis `d`
    /// (`ij -> ji` gives `perm = [1, 0]`; identity copies included).
    Transpose {
        /// Output-axis-to-input-axis map.
        perm: Vec<usize>,
    },
    /// Single operand, output an order-preserving strict subsequence of
    /// the input indices; the dropped axes are summed.
    /// `ijk -> ik` gives `axes = [1]`; `ij ->` gives `axes = [0, 1]`.
    Reduction {
        /// Input axes summed away, ascending.
        axes: Vec<usize>,
    },
    /// `T,T -> T`: elementwise product of two same-term operands.
    Hadamard,
    /// `a,b -> ab`: outer product of two vectors.
    Outer,
    /// `a,a ->`: inner product of two vectors.
    Dot,
    /// `aa ->`: sum of the main diagonal of a square matrix.
    Trace,
    /// `aa -> a`: extract the main diagonal of a square matrix.
    Diagonal,
    /// Everything else: falls back to the full indirect-einsum lowering.
    General,
}

impl Pattern {
    /// Short lowercase label, stable across releases (used by simbench
    /// tables and serve kernel keys).
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Matmul => "matmul",
            Pattern::BatchedMatmul => "batched_matmul",
            Pattern::Transpose { .. } => "transpose",
            Pattern::Reduction { .. } => "reduction",
            Pattern::Hadamard => "hadamard",
            Pattern::Outer => "outer",
            Pattern::Dot => "dot",
            Pattern::Trace => "trace",
            Pattern::Diagonal => "diagonal",
            Pattern::General => "general",
        }
    }

    /// True for every pattern with a dedicated execution target: the
    /// stride views and microkernels. The dense contractions (matmul,
    /// batched matmul, dot) and [`Pattern::General`] run the general
    /// lowering.
    pub fn is_fast(&self) -> bool {
        !matches!(
            self,
            Pattern::Matmul | Pattern::BatchedMatmul | Pattern::Dot | Pattern::General
        )
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn has_repeats<S: AsRef<str>>(term: &[S]) -> bool {
    for (i, a) in term.iter().enumerate() {
        if term[i + 1..].iter().any(|b| b.as_ref() == a.as_ref()) {
            return true;
        }
    }
    false
}

fn same_term<S: AsRef<str>>(a: &[S], b: &[S]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.as_ref() == y.as_ref())
}

/// Classify a single-operand contraction (no repeated input indices).
fn classify_unary<S: AsRef<str>>(input: &[S], output: &[S]) -> Pattern {
    // Permutation: same index multiset, same length, no repeats anywhere.
    if input.len() == output.len() {
        let mut perm = Vec::with_capacity(output.len());
        for o in output {
            match input.iter().position(|i| i.as_ref() == o.as_ref()) {
                Some(p) => perm.push(p),
                None => return Pattern::General,
            }
        }
        return Pattern::Transpose { perm };
    }
    // Order-preserving strict subsequence: the kept indices appear in the
    // same relative order; everything dropped is summed.
    if output.len() < input.len() {
        let mut axes = Vec::new();
        let mut oi = 0;
        for (ii, name) in input.iter().enumerate() {
            if oi < output.len() && output[oi].as_ref() == name.as_ref() {
                oi += 1;
            } else {
                axes.push(ii);
            }
        }
        if oi == output.len() {
            return Pattern::Reduction { axes };
        }
    }
    Pattern::General
}

/// Classify a two-operand contraction (no repeated indices in any term).
fn classify_binary<S: AsRef<str>>(a: &[S], b: &[S], output: &[S]) -> Pattern {
    if same_term(a, b) && same_term(a, output) {
        return Pattern::Hadamard;
    }
    match (a.len(), b.len(), output.len()) {
        (1, 1, 0) if a[0].as_ref() == b[0].as_ref() => Pattern::Dot,
        (1, 1, 2)
            if a[0].as_ref() != b[0].as_ref()
                && output[0].as_ref() == a[0].as_ref()
                && output[1].as_ref() == b[0].as_ref() =>
        {
            Pattern::Outer
        }
        (2, 2, 2)
            if a[1].as_ref() == b[0].as_ref()
                && output[0].as_ref() == a[0].as_ref()
                && output[1].as_ref() == b[1].as_ref()
                && !has_repeats(output)
                && a[0].as_ref() != b[0].as_ref()
                && a[1].as_ref() != b[1].as_ref() =>
        {
            Pattern::Matmul
        }
        (3, 3, 3)
            if a[0].as_ref() == b[0].as_ref()
                && a[2].as_ref() == b[1].as_ref()
                && output[0].as_ref() == a[0].as_ref()
                && output[1].as_ref() == a[1].as_ref()
                && output[2].as_ref() == b[2].as_ref()
                && !has_repeats(output)
                && distinct_batched(a, b) =>
        {
            Pattern::BatchedMatmul
        }
        _ => Pattern::General,
    }
}

/// For `gab,gbc -> gac`: g, a, b, c must be four distinct indices.
fn distinct_batched<S: AsRef<str>>(a: &[S], b: &[S]) -> bool {
    let names = [a[0].as_ref(), a[1].as_ref(), a[2].as_ref(), b[2].as_ref()];
    for (i, x) in names.iter().enumerate() {
        if names[i + 1..].contains(x) {
            return false;
        }
    }
    true
}

/// Classify an einsum given its input index terms and its output term.
///
/// Index names are compared by string equality only; shapes are not
/// consulted (shape consistency is the caller's concern — the fast-path
/// gate in `crates/core` re-validates extents before dispatch).
///
/// Returns [`Pattern::General`] for anything outside the recognition
/// table in the crate docs, including every spec with an output index
/// that appears in no input.
pub fn classify_terms<S: AsRef<str>>(inputs: &[Vec<S>], output: &[S]) -> Pattern {
    // Output repeats (`a -> aa`) and broadcast outputs are never fast.
    if has_repeats(output) {
        return Pattern::General;
    }
    for o in output {
        if !inputs
            .iter()
            .any(|t| t.iter().any(|i| i.as_ref() == o.as_ref()))
        {
            return Pattern::General;
        }
    }
    match inputs {
        [input] => {
            if has_repeats(input) {
                // Only the square-diagonal forms admit repeats.
                if input.len() == 2 && input[0].as_ref() == input[1].as_ref() {
                    return match output.len() {
                        1 if output[0].as_ref() == input[0].as_ref() => Pattern::Diagonal,
                        0 => Pattern::Trace,
                        _ => Pattern::General,
                    };
                }
                return Pattern::General;
            }
            classify_unary(input, output)
        }
        [a, b] => {
            if has_repeats(a) || has_repeats(b) {
                return Pattern::General;
            }
            classify_binary(a, b, output)
        }
        _ => Pattern::General,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classify single-letter index terms: `c(&["ij", "jk"], "ik")`.
    fn c(inputs: &[&str], output: &str) -> Pattern {
        let term = |t: &str| t.chars().map(String::from).collect::<Vec<_>>();
        let inputs: Vec<Vec<String>> = inputs.iter().map(|t| term(t)).collect();
        classify_terms(&inputs, &term(output))
    }

    #[test]
    fn recognizes_every_table_row() {
        assert_eq!(c(&["ij", "jk"], "ik"), Pattern::Matmul);
        assert_eq!(c(&["gij", "gjk"], "gik"), Pattern::BatchedMatmul);
        assert_eq!(c(&["ij"], "ji"), Pattern::Transpose { perm: vec![1, 0] });
        assert_eq!(
            c(&["ijk"], "kij"),
            Pattern::Transpose {
                perm: vec![2, 0, 1]
            }
        );
        assert_eq!(c(&["ij"], "ij"), Pattern::Transpose { perm: vec![0, 1] });
        assert_eq!(c(&["ijk"], "ik"), Pattern::Reduction { axes: vec![1] });
        assert_eq!(c(&["ij"], ""), Pattern::Reduction { axes: vec![0, 1] });
        assert_eq!(c(&["ij"], "i"), Pattern::Reduction { axes: vec![1] });
        assert_eq!(c(&["ij", "ij"], "ij"), Pattern::Hadamard);
        assert_eq!(c(&["i", "i"], "i"), Pattern::Hadamard);
        assert_eq!(c(&["i", "j"], "ij"), Pattern::Outer);
        assert_eq!(c(&["i", "i"], ""), Pattern::Dot);
        assert_eq!(c(&["ii"], ""), Pattern::Trace);
        assert_eq!(c(&["ii"], "i"), Pattern::Diagonal);
    }

    #[test]
    fn near_misses_fall_back_to_general() {
        // Repeated indices outside the aa forms.
        assert_eq!(c(&["iij"], "j"), Pattern::General);
        assert_eq!(c(&["iii"], "i"), Pattern::General);
        assert_eq!(c(&["ii"], "ii"), Pattern::General);
        // Broadcast / invented output index.
        assert_eq!(c(&["i"], "ij"), Pattern::General);
        assert_eq!(c(&["ij", "j"], "ij"), Pattern::General);
        // Reduce + permute is not an ordered subsequence.
        assert_eq!(c(&["ijk"], "ji"), Pattern::General);
        // Matvec and transposed-operand matmuls.
        assert_eq!(c(&["ij", "j"], "i"), Pattern::General);
        assert_eq!(c(&["ij", "kj"], "ik"), Pattern::General);
        assert_eq!(c(&["ji", "jk"], "ik"), Pattern::General);
        // Transposed Hadamard, Frobenius dot, 2-D "outer".
        assert_eq!(c(&["ij", "ji"], "ij"), Pattern::General);
        assert_eq!(c(&["ij", "ij"], ""), Pattern::General);
        assert_eq!(c(&["ij", "kl"], "ijkl"), Pattern::General);
        // Matmul degenerate index collisions.
        assert_eq!(c(&["ij", "ji"], "ii"), Pattern::General);
        assert_eq!(c(&["ii", "ij"], "ij"), Pattern::General);
        // Three operands never classify.
        assert_eq!(c(&["ij", "jk", "kl"], "il"), Pattern::General);
        // Batched matmul with a colliding batch index.
        assert_eq!(c(&["iab", "ibi"], "iai"), Pattern::General);
    }

    #[test]
    fn classification_is_name_invariant() {
        let a = classify_terms(&[vec!["p", "q"], vec!["q", "r"]], &["p", "r"]);
        assert_eq!(a, Pattern::Matmul);
        assert_eq!(a, c(&["ab", "bc"], "ac"));
        assert_eq!(
            classify_terms(&[vec!["row", "col"]], &["col", "row"]),
            c(&["ab"], "ba")
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Pattern::Matmul.name(), "matmul");
        assert_eq!(Pattern::Transpose { perm: vec![] }.name(), "transpose");
        assert_eq!(Pattern::General.name(), "general");
        assert!(Pattern::Hadamard.is_fast());
        assert!(Pattern::Transpose { perm: vec![] }.is_fast());
        for dense in [Pattern::Matmul, Pattern::BatchedMatmul, Pattern::Dot] {
            assert!(!dense.is_fast(), "{dense}");
        }
        assert!(!Pattern::General.is_fast());
        assert_eq!(format!("{}", Pattern::BatchedMatmul), "batched_matmul");
    }
}
