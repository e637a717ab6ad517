//! Recursive-descent parser for indirect Einsum statements.

use crate::ast::{Access, AssignOp, IndexExpr, Statement};
use crate::error::LangError;
use crate::lexer::{lex, Token};
use crate::Result;

/// How deep accesses may nest (`A[B[i]]` is depth 2). The analyzer
/// accepts one level of indirection, so nothing it accepts comes near the
/// cap; the cap keeps hostile input from recursing through a thread's
/// stack, which no caller could catch.
const MAX_NESTING: usize = 16;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Accesses open around the current position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, expected: &str) -> LangError {
        LangError::ParseError {
            expected: expected.to_string(),
            found: self
                .peek()
                .map(|t| format!("{t:?}"))
                .unwrap_or_else(|| "end of input".to_string()),
            pos: self.pos,
        }
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.err(what)),
        }
    }

    /// access := IDENT '[' index (',' index)* ']'
    fn access(&mut self) -> Result<Access> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!(
                "an index variable (accesses nest at most {MAX_NESTING} deep)"
            )));
        }
        self.depth += 1;
        let access = self.access_body();
        self.depth -= 1;
        access
    }

    fn access_body(&mut self) -> Result<Access> {
        let tensor = self.ident("tensor name")?;
        self.expect(&Token::LBracket, "'['")?;
        let mut indices = Vec::new();
        loop {
            indices.push(self.index()?);
            match self.peek() {
                Some(Token::Comma) => {
                    self.pos += 1;
                }
                Some(Token::RBracket) => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
        Ok(Access { tensor, indices })
    }

    /// index := IDENT '[' ... ']'  (indirect)  |  IDENT  (plain variable)
    fn index(&mut self) -> Result<IndexExpr> {
        let name = self.ident("index variable or tensor")?;
        if self.peek() == Some(&Token::LBracket) {
            // Re-parse as a nested access: rewind one token.
            self.pos -= 1;
            Ok(IndexExpr::Indirect(self.access()?))
        } else {
            Ok(IndexExpr::Var(name))
        }
    }
}

/// Parse an indirect Einsum statement such as
/// `"C[AM[p],n] += AV[p,q] * B[AK[p,q],n]"`.
///
/// The grammar is:
///
/// ```text
/// stmt   := access ('+=' | '=') access ('*' access)*
/// access := IDENT '[' index (',' index)* ']'
/// index  := access | IDENT
/// ```
///
/// # Errors
///
/// Returns [`LangError::UnexpectedChar`] for lexical errors and
/// [`LangError::ParseError`] for grammatical ones (including trailing
/// tokens, and accesses nested more than 16 deep).
pub fn parse(src: &str) -> Result<Statement> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let output = p.access()?;
    let op = match p.advance() {
        Some(Token::PlusEquals) => AssignOp::Accumulate,
        Some(Token::Equals) => AssignOp::Assign,
        _ => {
            p.pos = p.pos.saturating_sub(1);
            return Err(p.err("'+=' or '='"));
        }
    };
    let mut factors = vec![p.access()?];
    while p.peek() == Some(&Token::Star) {
        p.pos += 1;
        factors.push(p.access()?);
    }
    if p.peek().is_some() {
        return Err(p.err("end of input"));
    }
    Ok(Statement {
        output,
        op,
        factors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_coo_spmm() {
        let s = parse("C[AM[p],n] += AV[p] * B[AK[p],n]").unwrap();
        assert_eq!(s.op, AssignOp::Accumulate);
        assert_eq!(s.output.tensor, "C");
        assert_eq!(s.factors.len(), 2);
        assert!(matches!(s.output.indices[0], IndexExpr::Indirect(_)));
        assert!(matches!(s.output.indices[1], IndexExpr::Var(_)));
    }

    #[test]
    fn parse_group_coo_spmm() {
        let s = parse("C[AM[p],n] += AV[p,q] * B[AK[p,q],n]").unwrap();
        let IndexExpr::Indirect(ak) = &s.factors[1].indices[0] else {
            panic!("expected indirect index");
        };
        assert_eq!(ak.tensor, "AK");
        assert_eq!(ak.indices.len(), 2);
    }

    #[test]
    fn parse_block_group_coo_spmm() {
        // 𝐶[AM[p], bm, n] = AV[p,q,bm,bk] * B[AK[p,q], bk, n]
        let s = parse("C[AM[p],bm,n] += AV[p,q,bm,bk] * B[AK[p,q],bk,n]").unwrap();
        assert_eq!(s.output.indices.len(), 3);
        assert_eq!(s.factors[0].indices.len(), 4);
    }

    #[test]
    fn parse_sparse_conv() {
        let s =
            parse("Out[MAPX[p],q,m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]").unwrap();
        assert_eq!(s.factors.len(), 3);
        assert_eq!(s.all_vars(), vec!["p", "q", "m", "c"]);
    }

    #[test]
    fn parse_equivariant_tp() {
        let s = parse(
            "Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]",
        )
        .unwrap();
        assert_eq!(s.factors.len(), 4);
        assert_eq!(
            s.tensor_names(),
            vec!["Z", "CGI", "CGV", "X", "CGJ", "Y", "CGK", "W", "CGL"]
        );
    }

    #[test]
    fn parse_plain_assign() {
        let s = parse("C[i,j] = A[i,k] * B[k,j]").unwrap();
        assert_eq!(s.op, AssignOp::Assign);
        assert!(!s.output.has_indirection());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("C[i]").is_err()); // no rhs
        assert!(parse("C[i] += ").is_err());
        assert!(parse("C[i] += A[i] B[i]").is_err()); // missing '*'
        assert!(parse("C[i] += A[i] * ").is_err());
        assert!(parse("C[] += A[i]").is_err()); // empty index list
        assert!(parse("C[i,] += A[i]").is_err()); // trailing comma
        assert!(parse("C[i] += A[i] extra").is_err()); // trailing tokens
    }

    /// Deep nesting is a typed error, not a stack overflow, even on a
    /// 2 MiB thread (the default stack of a spawned thread).
    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        let nested = |depth: usize| format!("C[i] = {}i{}", "A[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        assert!(parse(&nested(MAX_NESTING + 1)).is_err());
        let deep = nested(20_000);
        let got = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep))
            .expect("thread spawns")
            .join()
            .expect("parsing does not panic");
        assert!(
            matches!(&got, Err(LangError::ParseError { expected, .. }) if expected.contains("nest")),
            "{got:?}"
        );
    }

    #[test]
    fn parse_nested_indirection() {
        // Depth-2 indirection parses (analysis may later restrict it).
        let s = parse("C[i] += A[P[Q[i]]]").unwrap();
        let IndexExpr::Indirect(p) = &s.factors[0].indices[0] else {
            panic!();
        };
        assert!(matches!(p.indices[0], IndexExpr::Indirect(_)));
    }
}
