//! Binary codec for [`insum_kernel::Kernel`] IR.
//!
//! The encoding is a direct tagged-tree serialization of the IR:
//! every instruction gets a one-byte tag followed by its fields, loop
//! bodies recurse (depth-capped), and `Option<Reg>` masks are a
//! presence byte plus the register. Decoding is defensive — register
//! and parameter indices are range-checked against the declared counts,
//! sequence lengths go through the allocation guard, and nesting deeper
//! than [`MAX_LOOP_DEPTH`] is rejected — so a CRC-valid but
//! hand-forged record still cannot panic the loader. Callers should
//! still run [`insum_kernel::Kernel::validate`] on the result; the
//! decoder enforces decode-safety, not full kernel semantics.

use crate::error::SnapshotError;
use crate::wire::{Reader, Writer};
use insum_kernel::{BinOp, Instr, Kernel, ParamDecl, Reg};
use insum_tensor::DType;

/// Maximum loop nesting the decoder will follow.
pub const MAX_LOOP_DEPTH: usize = 64;

/// Maximum registers a decoded kernel may declare (far above anything
/// the lowering pipeline emits; bounds the per-instance register file
/// allocation a forged record could request).
pub const MAX_NUM_REGS: usize = 1 << 20;

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::FloorDiv => 4,
        BinOp::Mod => 5,
        BinOp::Min => 6,
        BinOp::Max => 7,
        BinOp::Lt => 8,
        BinOp::Le => 9,
        BinOp::Eq => 10,
        BinOp::Ge => 11,
        BinOp::And => 12,
    }
}

fn tag_binop(tag: u8) -> Result<BinOp, SnapshotError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::FloorDiv,
        5 => BinOp::Mod,
        6 => BinOp::Min,
        7 => BinOp::Max,
        8 => BinOp::Lt,
        9 => BinOp::Le,
        10 => BinOp::Eq,
        11 => BinOp::Ge,
        12 => BinOp::And,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "binary-op tag",
            })
        }
    })
}

/// Stable one-byte wire tag for a parameter dtype (also usable as a
/// total order over dtypes when callers need deterministic record
/// ordering).
pub fn dtype_tag(dtype: DType) -> u8 {
    match dtype {
        DType::F16 => 0,
        DType::F32 => 1,
        DType::I32 => 2,
    }
}

/// Inverse of [`dtype_tag`].
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on an unknown tag.
pub fn tag_dtype(tag: u8) -> Result<DType, SnapshotError> {
    match tag {
        0 => Ok(DType::F16),
        1 => Ok(DType::F32),
        2 => Ok(DType::I32),
        _ => Err(SnapshotError::Corrupt {
            context: "dtype tag",
        }),
    }
}

fn write_mask(w: &mut Writer, mask: &Option<Reg>) {
    match mask {
        Some(r) => {
            w.u8(1);
            w.usize(*r);
        }
        None => w.u8(0),
    }
}

fn write_shape(w: &mut Writer, shape: &[usize]) {
    w.usize(shape.len());
    for &d in shape {
        w.usize(d);
    }
}

fn write_body(w: &mut Writer, body: &[Instr]) {
    w.usize(body.len());
    for instr in body {
        match instr {
            Instr::ProgramId { dst, axis } => {
                w.u8(1);
                w.usize(*dst);
                w.usize(*axis);
            }
            Instr::Const { dst, value } => {
                w.u8(2);
                w.usize(*dst);
                w.f64_bits(*value);
            }
            Instr::Arange { dst, len } => {
                w.u8(3);
                w.usize(*dst);
                w.usize(*len);
            }
            Instr::Full { dst, shape, value } => {
                w.u8(4);
                w.usize(*dst);
                write_shape(w, shape);
                w.f64_bits(*value);
            }
            Instr::Binary { dst, op, a, b } => {
                w.u8(5);
                w.usize(*dst);
                w.u8(binop_tag(*op));
                w.usize(*a);
                w.usize(*b);
            }
            Instr::ExpandDims { dst, src, axis } => {
                w.u8(6);
                w.usize(*dst);
                w.usize(*src);
                w.usize(*axis);
            }
            Instr::Broadcast { dst, src, shape } => {
                w.u8(7);
                w.usize(*dst);
                w.usize(*src);
                write_shape(w, shape);
            }
            Instr::View { dst, src, shape } => {
                w.u8(8);
                w.usize(*dst);
                w.usize(*src);
                write_shape(w, shape);
            }
            Instr::Trans { dst, src } => {
                w.u8(9);
                w.usize(*dst);
                w.usize(*src);
            }
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                other,
            } => {
                w.u8(10);
                w.usize(*dst);
                w.usize(*param);
                w.usize(*offset);
                write_mask(w, mask);
                w.f64_bits(*other);
            }
            Instr::Store {
                param,
                offset,
                value,
                mask,
            } => {
                w.u8(11);
                w.usize(*param);
                w.usize(*offset);
                w.usize(*value);
                write_mask(w, mask);
            }
            Instr::AtomicAdd {
                param,
                offset,
                value,
                mask,
            } => {
                w.u8(12);
                w.usize(*param);
                w.usize(*offset);
                w.usize(*value);
                write_mask(w, mask);
            }
            Instr::Dot { dst, a, b } => {
                w.u8(13);
                w.usize(*dst);
                w.usize(*a);
                w.usize(*b);
            }
            Instr::Sum { dst, src, axis } => {
                w.u8(14);
                w.usize(*dst);
                w.usize(*src);
                w.usize(*axis);
            }
            Instr::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                w.u8(15);
                w.usize(*var);
                w.i64(*start);
                w.i64(*end);
                w.i64(*step);
                write_body(w, body);
            }
            Instr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                w.u8(16);
                w.usize(*var);
                w.usize(*start);
                w.usize(*end);
                write_body(w, body);
            }
        }
    }
}

/// Append the encoding of `kernel` to `w`.
pub fn encode_kernel_into(kernel: &Kernel, w: &mut Writer) {
    w.str(&kernel.name);
    w.usize(kernel.params.len());
    for p in &kernel.params {
        w.str(&p.name);
        w.bool(p.written);
    }
    w.usize(kernel.num_regs);
    write_body(w, &kernel.body);
}

/// Encode `kernel` as a standalone byte vector.
pub fn encode_kernel(kernel: &Kernel) -> Vec<u8> {
    let mut w = Writer::new();
    encode_kernel_into(kernel, &mut w);
    w.into_bytes()
}

struct Bounds {
    num_regs: usize,
    num_params: usize,
}

fn read_reg(r: &mut Reader<'_>, bounds: &Bounds) -> Result<Reg, SnapshotError> {
    let reg = r.usize("register")?;
    if reg >= bounds.num_regs {
        return Err(SnapshotError::Invalid {
            context: format!("register {reg} out of range ({} declared)", bounds.num_regs),
        });
    }
    Ok(reg)
}

fn read_param(r: &mut Reader<'_>, bounds: &Bounds) -> Result<usize, SnapshotError> {
    let param = r.usize("parameter index")?;
    if param >= bounds.num_params {
        return Err(SnapshotError::Invalid {
            context: format!(
                "parameter {param} out of range ({} declared)",
                bounds.num_params
            ),
        });
    }
    Ok(param)
}

fn read_mask(r: &mut Reader<'_>, bounds: &Bounds) -> Result<Option<Reg>, SnapshotError> {
    if r.bool("mask presence")? {
        Ok(Some(read_reg(r, bounds)?))
    } else {
        Ok(None)
    }
}

fn read_shape(r: &mut Reader<'_>) -> Result<Vec<usize>, SnapshotError> {
    let n = r.seq_len(8, "shape length")?;
    let mut shape = Vec::with_capacity(n);
    for _ in 0..n {
        shape.push(r.usize("shape dim")?);
    }
    Ok(shape)
}

fn read_body(
    r: &mut Reader<'_>,
    bounds: &Bounds,
    depth: usize,
) -> Result<Vec<Instr>, SnapshotError> {
    if depth > MAX_LOOP_DEPTH {
        return Err(SnapshotError::Invalid {
            context: format!("loop nesting exceeds {MAX_LOOP_DEPTH}"),
        });
    }
    // Every instruction costs at least its tag byte plus one field.
    let n = r.seq_len(2, "body length")?;
    let mut body = Vec::with_capacity(n);
    for _ in 0..n {
        let instr = match r.u8("instruction tag")? {
            1 => Instr::ProgramId {
                dst: read_reg(r, bounds)?,
                axis: r.usize("program_id axis")?,
            },
            2 => Instr::Const {
                dst: read_reg(r, bounds)?,
                value: r.f64_bits("const value")?,
            },
            3 => Instr::Arange {
                dst: read_reg(r, bounds)?,
                len: r.usize("arange len")?,
            },
            4 => Instr::Full {
                dst: read_reg(r, bounds)?,
                shape: read_shape(r)?,
                value: r.f64_bits("full value")?,
            },
            5 => Instr::Binary {
                dst: read_reg(r, bounds)?,
                op: tag_binop(r.u8("binary op")?)?,
                a: read_reg(r, bounds)?,
                b: read_reg(r, bounds)?,
            },
            6 => Instr::ExpandDims {
                dst: read_reg(r, bounds)?,
                src: read_reg(r, bounds)?,
                axis: r.usize("expand axis")?,
            },
            7 => Instr::Broadcast {
                dst: read_reg(r, bounds)?,
                src: read_reg(r, bounds)?,
                shape: read_shape(r)?,
            },
            8 => Instr::View {
                dst: read_reg(r, bounds)?,
                src: read_reg(r, bounds)?,
                shape: read_shape(r)?,
            },
            9 => Instr::Trans {
                dst: read_reg(r, bounds)?,
                src: read_reg(r, bounds)?,
            },
            10 => Instr::Load {
                dst: read_reg(r, bounds)?,
                param: read_param(r, bounds)?,
                offset: read_reg(r, bounds)?,
                mask: read_mask(r, bounds)?,
                other: r.f64_bits("load other")?,
            },
            11 => Instr::Store {
                param: read_param(r, bounds)?,
                offset: read_reg(r, bounds)?,
                value: read_reg(r, bounds)?,
                mask: read_mask(r, bounds)?,
            },
            12 => Instr::AtomicAdd {
                param: read_param(r, bounds)?,
                offset: read_reg(r, bounds)?,
                value: read_reg(r, bounds)?,
                mask: read_mask(r, bounds)?,
            },
            13 => Instr::Dot {
                dst: read_reg(r, bounds)?,
                a: read_reg(r, bounds)?,
                b: read_reg(r, bounds)?,
            },
            14 => Instr::Sum {
                dst: read_reg(r, bounds)?,
                src: read_reg(r, bounds)?,
                axis: r.usize("sum axis")?,
            },
            15 => Instr::Loop {
                var: read_reg(r, bounds)?,
                start: r.i64("loop start")?,
                end: r.i64("loop end")?,
                step: r.i64("loop step")?,
                body: read_body(r, bounds, depth + 1)?,
            },
            16 => Instr::LoopDyn {
                var: read_reg(r, bounds)?,
                start: read_reg(r, bounds)?,
                end: read_reg(r, bounds)?,
                body: read_body(r, bounds, depth + 1)?,
            },
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "instruction tag",
                })
            }
        };
        body.push(instr);
    }
    Ok(body)
}

/// Decode one kernel from `r`, leaving the reader positioned after it.
///
/// # Errors
///
/// Typed [`SnapshotError`] on any damage — truncation, unknown tags,
/// out-of-range registers/parameters, excessive nesting, or an absurd
/// register count. Never panics.
pub fn decode_kernel_from(r: &mut Reader<'_>) -> Result<Kernel, SnapshotError> {
    let name = r.str("kernel name")?;
    let num_params = r.seq_len(5, "param count")?;
    let mut params = Vec::with_capacity(num_params);
    for _ in 0..num_params {
        let name = r.str("param name")?;
        let written = r.bool("param written")?;
        params.push(ParamDecl { name, written });
    }
    let num_regs = r.usize("num_regs")?;
    if num_regs > MAX_NUM_REGS {
        return Err(SnapshotError::Invalid {
            context: format!("num_regs {num_regs} exceeds {MAX_NUM_REGS}"),
        });
    }
    let bounds = Bounds {
        num_regs,
        num_params,
    };
    let body = read_body(r, &bounds, 0)?;
    Ok(Kernel {
        name,
        params,
        body,
        num_regs,
    })
}

/// Decode a standalone kernel encoding, requiring every byte to be
/// consumed.
pub fn decode_kernel(bytes: &[u8]) -> Result<Kernel, SnapshotError> {
    let mut r = Reader::new(bytes);
    let k = decode_kernel_from(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt {
            context: "trailing bytes after kernel",
        });
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_kernel::fingerprint;

    fn sample_kernel() -> Kernel {
        Kernel {
            name: "snap_sample".into(),
            params: vec![ParamDecl::input("A"), ParamDecl::output("C")],
            body: vec![
                Instr::ProgramId { dst: 0, axis: 0 },
                Instr::Arange { dst: 1, len: 16 },
                Instr::Full {
                    dst: 2,
                    shape: vec![4, 4],
                    value: -0.5,
                },
                Instr::Binary {
                    dst: 3,
                    op: BinOp::FloorDiv,
                    a: 0,
                    b: 1,
                },
                Instr::Load {
                    dst: 4,
                    param: 0,
                    offset: 3,
                    mask: Some(1),
                    other: f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
                },
                Instr::Loop {
                    var: 5,
                    start: 0,
                    end: 8,
                    step: 2,
                    body: vec![Instr::LoopDyn {
                        var: 6,
                        start: 0,
                        end: 5,
                        body: vec![Instr::Sum {
                            dst: 7,
                            src: 4,
                            axis: 1,
                        }],
                    }],
                },
                Instr::AtomicAdd {
                    param: 1,
                    offset: 3,
                    value: 7,
                    mask: None,
                },
            ],
            num_regs: 8,
        }
    }

    #[test]
    fn round_trip_is_structurally_identical() {
        let k = sample_kernel();
        let bytes = encode_kernel(&k);
        let back = decode_kernel(&bytes).unwrap();
        // Kernel's derived PartialEq follows float semantics (NaN !=
        // NaN), so bit-exactness is asserted through re-encoding and
        // the stable fingerprint instead.
        assert_eq!(encode_kernel(&back), bytes);
        assert_eq!(fingerprint(&back), fingerprint(&k));
        back.validate().unwrap();
    }

    #[test]
    fn dtype_tags_round_trip_and_unknown_tag_is_typed() {
        for d in [DType::F16, DType::F32, DType::I32] {
            assert_eq!(tag_dtype(dtype_tag(d)), Ok(d));
        }
        assert!(matches!(tag_dtype(3), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn truncations_are_typed_not_panicking() {
        let bytes = encode_kernel(&sample_kernel());
        for cut in 0..bytes.len() {
            assert!(decode_kernel(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut k = sample_kernel();
        k.num_regs = 4; // registers 4..8 now out of range
        let bytes = encode_kernel(&k);
        assert!(matches!(
            decode_kernel(&bytes),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn absurd_num_regs_rejected() {
        let mut k = sample_kernel();
        k.body.clear();
        k.num_regs = MAX_NUM_REGS + 1;
        assert!(matches!(
            decode_kernel(&encode_kernel(&k)),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn excessive_nesting_rejected() {
        let mut body = vec![Instr::Const { dst: 0, value: 1.0 }];
        for _ in 0..(MAX_LOOP_DEPTH + 2) {
            body = vec![Instr::Loop {
                var: 0,
                start: 0,
                end: 1,
                step: 1,
                body,
            }];
        }
        let k = Kernel {
            name: "deep".into(),
            params: vec![],
            body,
            num_regs: 1,
        };
        assert!(matches!(
            decode_kernel(&encode_kernel(&k)),
            Err(SnapshotError::Invalid { .. })
        ));
    }
}
