//! IR analysis helpers shared by the simulator's ahead-of-time program
//! compiler and the launch-time safety checks: structural fingerprinting
//! (the program-cache key) and per-parameter access summaries.

use crate::ir::{visit_instrs, Instr, Kernel};

/// Per-parameter access summary: which parameters the kernel loads and
/// which it stores or atomically updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamUsage {
    /// `loaded[p]` — parameter `p` appears in at least one `Load`.
    pub loaded: Vec<bool>,
    /// `written[p]` — parameter `p` appears in a `Store` or `AtomicAdd`.
    pub written: Vec<bool>,
}

impl ParamUsage {
    /// True when no parameter is both loaded and written — the condition
    /// under which grid instances have no cross-instance read-after-write
    /// hazards (Execute-mode launches may then run out of order).
    pub fn no_read_write_params(&self) -> bool {
        self.loaded
            .iter()
            .zip(&self.written)
            .all(|(&l, &w)| !(l && w))
    }
}

/// Summarize which parameters a kernel loads and writes.
pub fn param_usage(kernel: &Kernel) -> ParamUsage {
    let n = kernel.params.len();
    let mut usage = ParamUsage {
        loaded: vec![false; n],
        written: vec![false; n],
    };
    visit_instrs(&kernel.body, &mut |instr| match instr {
        Instr::Load { param, .. } => usage.loaded[*param] = true,
        Instr::Store { param, .. } | Instr::AtomicAdd { param, .. } => usage.written[*param] = true,
        _ => {}
    });
    usage
}

/// A 64-bit FNV-1a accumulator — stable across platforms and runs
/// (unlike `DefaultHasher`, whose seed and algorithm are unspecified),
/// which makes fingerprints safe to persist or compare out of process.
/// The one FNV of the workspace: kernel fingerprints, autotune workload
/// signatures and the simulator's analysis digests all hash with it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mix raw bytes (no length prefix).
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix a string, length first.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Mix a shape, rank first.
    pub fn shape(&mut self, s: &[usize]) {
        self.usize(s.len());
        for &d in s {
            self.usize(d);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_body(h: &mut Fnv, body: &[Instr]) {
    h.usize(body.len());
    for instr in body {
        match instr {
            Instr::ProgramId { dst, axis } => {
                h.byte(1);
                h.usize(*dst);
                h.usize(*axis);
            }
            Instr::Const { dst, value } => {
                h.byte(2);
                h.usize(*dst);
                h.f64(*value);
            }
            Instr::Arange { dst, len } => {
                h.byte(3);
                h.usize(*dst);
                h.usize(*len);
            }
            Instr::Full { dst, shape, value } => {
                h.byte(4);
                h.usize(*dst);
                h.shape(shape);
                h.f64(*value);
            }
            Instr::Binary { dst, op, a, b } => {
                h.byte(5);
                h.usize(*dst);
                h.byte(*op as u8);
                h.usize(*a);
                h.usize(*b);
            }
            Instr::ExpandDims { dst, src, axis } => {
                h.byte(6);
                h.usize(*dst);
                h.usize(*src);
                h.usize(*axis);
            }
            Instr::Broadcast { dst, src, shape } => {
                h.byte(7);
                h.usize(*dst);
                h.usize(*src);
                h.shape(shape);
            }
            Instr::View { dst, src, shape } => {
                h.byte(8);
                h.usize(*dst);
                h.usize(*src);
                h.shape(shape);
            }
            Instr::Trans { dst, src } => {
                h.byte(9);
                h.usize(*dst);
                h.usize(*src);
            }
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                other,
            } => {
                h.byte(10);
                h.usize(*dst);
                h.usize(*param);
                h.usize(*offset);
                h.usize(mask.map_or(usize::MAX, |m| m));
                h.f64(*other);
            }
            Instr::Store {
                param,
                offset,
                value,
                mask,
            } => {
                h.byte(11);
                h.usize(*param);
                h.usize(*offset);
                h.usize(*value);
                h.usize(mask.map_or(usize::MAX, |m| m));
            }
            Instr::AtomicAdd {
                param,
                offset,
                value,
                mask,
            } => {
                h.byte(12);
                h.usize(*param);
                h.usize(*offset);
                h.usize(*value);
                h.usize(mask.map_or(usize::MAX, |m| m));
            }
            Instr::Dot { dst, a, b } => {
                h.byte(13);
                h.usize(*dst);
                h.usize(*a);
                h.usize(*b);
            }
            Instr::Sum { dst, src, axis } => {
                h.byte(14);
                h.usize(*dst);
                h.usize(*src);
                h.usize(*axis);
            }
            Instr::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                h.byte(15);
                h.usize(*var);
                h.u64(*start as u64);
                h.u64(*end as u64);
                h.u64(*step as u64);
                hash_body(h, body);
            }
            Instr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                h.byte(16);
                h.usize(*var);
                h.usize(*start);
                h.usize(*end);
                hash_body(h, body);
            }
        }
    }
}

/// A stable structural fingerprint of a kernel: two kernels share a
/// fingerprint exactly when their name, parameter declarations, register
/// count, and instruction tree are identical. Used (together with the
/// launch grid and argument metadata) as the program-cache key, so the
/// ahead-of-time lowering in `insum_gpu` is done once per distinct
/// launch shape rather than once per launch.
pub fn fingerprint(kernel: &Kernel) -> u64 {
    let mut h = Fnv::new();
    h.str(&kernel.name);
    h.usize(kernel.params.len());
    for p in &kernel.params {
        h.str(&p.name);
        h.byte(p.written as u8);
    }
    h.usize(kernel.num_regs);
    hash_body(&mut h, &kernel.body);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, KernelBuilder};

    fn sample(scale: f64) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let w = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, w);
        let lanes = b.arange(32);
        let offs = b.binary(BinOp::Add, base, lanes);
        let v = b.load(x, offs, None, 0.0);
        let s = b.constant(scale);
        let sv = b.binary(BinOp::Mul, v, s);
        b.store(y, offs, sv, None);
        b.build()
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        assert_eq!(fingerprint(&sample(2.0)), fingerprint(&sample(2.0)));
        assert_ne!(fingerprint(&sample(2.0)), fingerprint(&sample(3.0)));
        let mut renamed = sample(2.0);
        renamed.name = "other".into();
        assert_ne!(fingerprint(&sample(2.0)), fingerprint(&renamed));
    }

    #[test]
    fn fingerprint_covers_loop_bodies() {
        let mut a = sample(2.0);
        let mut b = sample(2.0);
        a.body.push(Instr::Loop {
            var: 0,
            start: 0,
            end: 4,
            step: 1,
            body: vec![Instr::Const { dst: 1, value: 1.0 }],
        });
        b.body.push(Instr::Loop {
            var: 0,
            start: 0,
            end: 4,
            step: 1,
            body: vec![Instr::Const { dst: 1, value: 2.0 }],
        });
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn param_usage_flags_read_write_hazards() {
        let u = param_usage(&sample(1.0));
        assert_eq!(u.loaded, vec![true, false]);
        assert_eq!(u.written, vec![false, true]);
        assert!(u.no_read_write_params());

        // A kernel that reads its own output has a hazard.
        let mut b = KernelBuilder::new("rmw");
        let y = b.output("Y");
        let lanes = b.arange(8);
        let v = b.load(y, lanes, None, 0.0);
        b.store(y, lanes, v, None);
        let k = b.build();
        assert!(!param_usage(&k).no_read_write_params());
    }
}
