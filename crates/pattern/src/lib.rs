//! Einsum pattern classification for fast-path dispatch.
//!
//! The general indirect-einsum lowering (crates/gpu) executes *every*
//! statement that computes — sums, products, contractions — as one
//! generated kernel. What it cannot beat is doing nothing: a statement
//! that only moves each input element to one output slot is a stride
//! view of the input's own storage. This crate is the recognition layer
//! for those statements — a pure, dependency-free function from the
//! *index structure* of an einsum (its input terms and output term) to a
//! [`Pattern`].
//!
//! # Recognition table
//!
//! Index names below are canonical placeholders; classification is
//! structural, so any names that are equal/distinct in the same positions
//! classify identically. The two view rows run as a zero-copy stride view
//! (`insum_gpu::run_micro`); everything else runs the general lowering.
//!
//! | Spec shape                | Pattern                  | Extracted dims | Lowered by |
//! |---------------------------|--------------------------|----------------|------------|
//! | `a…z -> permutation`      | [`Pattern::Transpose`]   | `perm[d]` = input axis feeding output axis `d` | stride view |
//! | `aa -> a`                 | [`Pattern::Diagonal`]    | — | stride view |
//! | anything else             | [`Pattern::General`]     | — | general |
//!
//! The identity copy `ab -> ab` is a [`Pattern::Transpose`] with the
//! identity permutation. Reductions (`ab -> a`, `aa ->`), elementwise
//! and outer products (`T,T -> T`, `a,b -> ab`) and the dense
//! contractions (`ab,bc -> ac`, `a,a ->`) are [`Pattern::General`]: the
//! general lowering runs them as one kernel, with that kernel's bits and
//! simulated time.
//!
//! # Fallback guarantee
//!
//! Classification is *conservative*: a spec is only assigned a view
//! pattern when it matches one of the two view rows exactly. Near misses
//! — repeated indices outside `aa -> a`, broadcast dims (an output index
//! absent from the input), a dropped index, two or more operands — all
//! classify as [`Pattern::General`] and run through the full lowering.
//! The general path therefore remains the bit-identity oracle: a view
//! holds the raw bits the general copy kernel would store, and everything
//! else *is* the general lowering.

/// The index structures the classifier recognizes.
///
/// See the crate docs for the recognition table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Single operand, output a permutation of the input indices.
    /// `perm[d]` is the input axis that feeds output axis `d`
    /// (`ij -> ji` gives `perm = [1, 0]`; identity copies included).
    Transpose {
        /// Output-axis-to-input-axis map.
        perm: Vec<usize>,
    },
    /// `aa -> a`: extract the main diagonal of a square matrix.
    Diagonal,
    /// Everything else: the full indirect-einsum lowering.
    General,
}

impl Pattern {
    /// Short lowercase label, stable across releases (used by simbench
    /// tables and serve kernel keys).
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Transpose { .. } => "transpose",
            Pattern::Diagonal => "diagonal",
            Pattern::General => "general",
        }
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

/// Classify an einsum given its input index terms and its output term.
///
/// Index names are compared by string equality only; shapes are not
/// consulted (shape consistency is the caller's concern — the fast-path
/// gate in `crates/core` re-validates extents before dispatch).
///
/// Returns [`Pattern::General`] for anything outside the recognition
/// table in the crate docs.
pub fn classify_terms<S: AsRef<str>>(inputs: &[Vec<S>], output: &[S]) -> Pattern {
    let [input] = inputs else {
        return Pattern::General;
    };
    if input.len() == 2 && input[0].as_ref() == input[1].as_ref() {
        return match output {
            [o] if o.as_ref() == input[0].as_ref() => Pattern::Diagonal,
            _ => Pattern::General,
        };
    }
    if input.len() != output.len() || has_repeats(input) || has_repeats(output) {
        return Pattern::General;
    }
    // Same length, no repeats on either side: a permutation exactly when
    // every output index appears in the input.
    let perm: Option<Vec<usize>> = output
        .iter()
        .map(|o| input.iter().position(|i| i.as_ref() == o.as_ref()))
        .collect();
    perm.map_or(Pattern::General, |perm| Pattern::Transpose { perm })
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
        assert_eq!(c(&["ij"], "ji"), Pattern::Transpose { perm: vec![1, 0] });
        assert_eq!(
            c(&["ijk"], "kij"),
            Pattern::Transpose {
                perm: vec![2, 0, 1]
            }
        );
        assert_eq!(c(&["ij"], "ij"), Pattern::Transpose { perm: vec![0, 1] });
        assert_eq!(c(&["i"], "i"), Pattern::Transpose { perm: vec![0] });
        assert_eq!(c(&["ii"], "i"), Pattern::Diagonal);
    }

    #[test]
    fn near_misses_fall_back_to_general() {
        // Shapes that compute: reductions, trace, elementwise and outer
        // products, dense contractions.
        assert_eq!(c(&["ijk"], "ik"), Pattern::General);
        assert_eq!(c(&["ij"], "i"), Pattern::General);
        assert_eq!(c(&["ij"], ""), Pattern::General);
        assert_eq!(c(&["ii"], ""), Pattern::General);
        assert_eq!(c(&["ij", "ij"], "ij"), Pattern::General);
        assert_eq!(c(&["i", "i"], "i"), Pattern::General);
        assert_eq!(c(&["i", "j"], "ij"), Pattern::General);
        assert_eq!(c(&["i", "i"], ""), Pattern::General);
        assert_eq!(c(&["ij", "jk"], "ik"), Pattern::General);
        assert_eq!(c(&["gij", "gjk"], "gik"), Pattern::General);
        // Repeated indices outside the aa -> a form.
        assert_eq!(c(&["iij"], "j"), Pattern::General);
        assert_eq!(c(&["iij"], "ij"), Pattern::General);
        assert_eq!(c(&["iii"], "i"), Pattern::General);
        assert_eq!(c(&["ii"], "ii"), Pattern::General);
        assert_eq!(c(&["ij"], "ii"), Pattern::General);
        // Broadcast / invented output index.
        assert_eq!(c(&["i"], "ij"), Pattern::General);
        assert_eq!(c(&["ij"], "ik"), Pattern::General);
        assert_eq!(c(&["ii"], "j"), Pattern::General);
        // Reduce + permute.
        assert_eq!(c(&["ijk"], "ji"), Pattern::General);
        // Three operands never classify.
        assert_eq!(c(&["ij", "jk", "kl"], "il"), Pattern::General);
    }

    #[test]
    fn classification_is_name_invariant() {
        assert_eq!(
            classify_terms(&[vec!["row", "col"]], &["col", "row"]),
            c(&["ab"], "ba")
        );
        assert_eq!(classify_terms(&[vec!["p", "p"]], &["p"]), c(&["aa"], "a"));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Pattern::Transpose { perm: vec![] }.name(), "transpose");
        assert_eq!(Pattern::Diagonal.name(), "diagonal");
        assert_eq!(format!("{}", Pattern::General), "general");
    }
}
