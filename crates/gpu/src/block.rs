//! Block values: the small n-d arrays kernels compute on.
//!
//! Optimized representation: a block is a *strided view* over shared
//! copy-on-write storage (`Rc<Vec<f64>>`), with scalars held inline so
//! loop counters and constants never touch the heap. Shape transforms —
//! [`Block::expand_dims`], [`Block::broadcast_to`], [`Block::trans`], and
//! contiguous [`Block::view`] — are pure metadata edits that share the
//! underlying buffer; only value-producing ops (loads, arithmetic,
//! reductions) materialize data. The cost model is unaffected: the
//! interpreter charges shared-memory traffic for `view`/`trans`/
//! `broadcast_to` exactly as when they copied eagerly, because that is
//! what the modeled hardware pays.
//!
//! A block is `!Send` by design. It is a value in one program
//! instance's register file, and a register file — the interpreter's
//! `Machine`, its registers, buffer pool and stream caches — is built,
//! used and dropped by one host thread: the sequential launch, or one
//! shard closure of a sharded one. What crosses the thread boundary is
//! the shard's *result* (counters, sector sets, instance times, the
//! write log), which holds no block, and the shared `Program`, which
//! holds none either. The interpreter asks "is this buffer uniquely
//! owned?" on every register write, pool allocation and in-place
//! update, so the count it asks must be a plain load (`Rc`), not a
//! locked read-modify-write (`Arc`); the compiler keeps the boundary
//! honest, since a block that tried to leave its thread would not build.

use crate::exact_dot;
use crate::isa::{Body, Isa};
use insum_kernel::BinOp;
use std::rc::Rc;

/// Maximum block rank (as before the strided rewrite: rank ≤ 4).
pub const MAX_RANK: usize = 4;

/// A uniquely-owned heap buffer recycled through the interpreter's
/// register pool. Wrapping the `Rc` (not just the `Vec`) means the
/// reference-count control block is reused too, so steady-state loop
/// iterations allocate nothing at all.
pub struct PoolBuf {
    rc: Rc<Vec<f64>>,
}

impl PoolBuf {
    /// A fresh, empty buffer.
    pub fn new() -> PoolBuf {
        PoolBuf {
            rc: Rc::new(Vec::new()),
        }
    }

    /// The buffer contents (always accessible: pool buffers are sole
    /// owners by construction).
    pub fn vec(&mut self) -> &mut Vec<f64> {
        Rc::get_mut(&mut self.rc).expect("pool buffers are uniquely owned")
    }
}

impl Default for PoolBuf {
    fn default() -> PoolBuf {
        PoolBuf::new()
    }
}

/// The rung of the ISA ladder (`isa.rs`) the elementwise bodies and the
/// canonical `tl.dot` loop run at. Elementwise f64 add/mul/compare
/// vectorize bit-exactly (each element keeps its own operation chain, no
/// reassociation, and the multiply and add of the canonical loop stay
/// separate instructions), so every rung produces identical results.
/// Fusing the multiply-add is legal only where the product is exact —
/// that is [`Block::dot_exact_with`] and the `exact_dot` module, which
/// carries the argument. Capped at AVX2: with these bodies at AVX-512
/// too, `irregular_exec` (whose time is mostly elementwise ops on
/// 16-lane blocks) read worse in an A/B against the cap — median
/// `op_tail_s` +22 %, `setup_s` +23 %, `ops_per_s` −10 % (EXPERIMENTS.md,
/// "The value pass at the host's vector width").
#[inline]
fn elementwise_isa() -> Isa {
    Isa::detect().min(Isa::Avx2)
}

#[derive(Debug, Clone)]
enum Storage {
    /// A rank-0 scalar held inline (no heap allocation).
    Inline(f64),
    /// Shared row-major-allocated storage addressed through the strides.
    Heap(Rc<Vec<f64>>),
}

/// A block value held in a virtual register: a rank ≤ 4 array of `f64`.
///
/// All kernel arithmetic happens in `f64` so that integer offsets (up to
/// 2^53) and `f32` data are both represented exactly; stores round to the
/// destination tensor's dtype.
#[derive(Debug, Clone)]
pub struct Block {
    rank: u8,
    shape: [usize; MAX_RANK],
    /// Element strides; 0 on broadcast dimensions.
    strides: [usize; MAX_RANK],
    offset: usize,
    storage: Storage,
}

/// Row-major contiguous strides for `shape[..rank]`.
fn contiguous_strides(shape: &[usize; MAX_RANK], rank: usize) -> [usize; MAX_RANK] {
    let mut strides = [0usize; MAX_RANK];
    let mut acc = 1usize;
    for d in (0..rank).rev() {
        strides[d] = acc;
        acc *= shape[d];
    }
    strides
}

fn pack_shape(shape: &[usize]) -> (u8, [usize; MAX_RANK]) {
    assert!(
        shape.len() <= MAX_RANK,
        "block rank {} exceeds {MAX_RANK}",
        shape.len()
    );
    let mut s = [1usize; MAX_RANK];
    s[..shape.len()].copy_from_slice(shape);
    (shape.len() as u8, s)
}

/// A rank ≤ 4 shape without heap storage — the interpreter-internal
/// currency for joint shapes, so hot instructions never allocate a
/// `Vec<usize>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape4 {
    rank: u8,
    dims: [usize; MAX_RANK],
}

impl Shape4 {
    /// Pack from a slice.
    ///
    /// # Panics
    ///
    /// Panics if the rank exceeds `MAX_RANK`.
    pub fn from_slice(shape: &[usize]) -> Shape4 {
        let (rank, dims) = pack_shape(shape);
        Shape4 { rank, dims }
    }

    /// The dimensions.
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Element count.
    pub fn volume(&self) -> usize {
        self.as_slice().iter().product()
    }

    /// NumPy-style joint broadcast shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn joint(a: &[usize], b: &[usize]) -> Shape4 {
        let nd = a.len().max(b.len());
        assert!(nd <= MAX_RANK, "block rank {nd} exceeds {MAX_RANK}");
        Shape4::try_joint(a, b).unwrap_or_else(|| panic!("incompatible block shapes {a:?} / {b:?}"))
    }

    /// [`Shape4::joint`] for shapes that may not broadcast: `None` when
    /// they are incompatible or the joint rank exceeds `MAX_RANK`.
    pub fn try_joint(a: &[usize], b: &[usize]) -> Option<Shape4> {
        let nd = a.len().max(b.len());
        if nd > MAX_RANK {
            return None;
        }
        let mut dims = [1usize; MAX_RANK];
        for i in 0..nd {
            let da = if i < nd - a.len() {
                1
            } else {
                a[i - (nd - a.len())]
            };
            let db = if i < nd - b.len() {
                1
            } else {
                b[i - (nd - b.len())]
            };
            if !(da == db || da == 1 || db == 1) {
                return None;
            }
            dims[i] = da.max(db);
        }
        Some(Shape4 {
            rank: nd as u8,
            dims,
        })
    }
}

impl Block {
    /// A scalar block (inline; no allocation).
    pub fn scalar(value: f64) -> Block {
        Block {
            rank: 0,
            shape: [1; MAX_RANK],
            strides: [0; MAX_RANK],
            offset: 0,
            storage: Storage::Inline(value),
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape volume or the rank
    /// exceeds `MAX_RANK`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Block {
        Block::from_pool(shape, PoolBuf { rc: Rc::new(data) })
    }

    /// Build from row-major data held in a recycled pool buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length differs from the shape volume or the
    /// rank exceeds `MAX_RANK`.
    pub fn from_pool(shape: Vec<usize>, buf: PoolBuf) -> Block {
        Block::from_packed(Shape4::from_slice(&shape), buf)
    }

    /// [`Block::from_pool`] from a packed shape (no `Vec` needed).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length differs from the shape volume.
    pub fn from_packed(shape: Shape4, mut buf: PoolBuf) -> Block {
        assert_eq!(
            shape.volume(),
            buf.vec().len(),
            "shape/data volume mismatch"
        );
        if shape.rank == 0 {
            return Block::scalar(buf.vec()[0]);
        }
        Block {
            rank: shape.rank,
            shape: shape.dims,
            strides: contiguous_strides(&shape.dims, shape.rank as usize),
            offset: 0,
            storage: Storage::Heap(buf.rc),
        }
    }

    /// This block's shape in packed form.
    pub fn shape4(&self) -> Shape4 {
        Shape4 {
            rank: self.rank,
            dims: self.shape,
        }
    }

    /// [`Block::full`] reusing a pool buffer for the single backing slot.
    pub fn full_pooled(shape: Vec<usize>, value: f64, buf: PoolBuf) -> Block {
        Block::full_packed(Shape4::from_slice(&shape), value, buf)
    }

    /// [`Block::full_pooled`] from a packed shape (no `Vec` needed).
    pub fn full_packed(shape: Shape4, value: f64, mut buf: PoolBuf) -> Block {
        if shape.rank == 0 {
            return Block::scalar(value);
        }
        let v = buf.vec();
        v.clear();
        v.push(value);
        Block {
            rank: shape.rank,
            shape: shape.dims,
            strides: [0; MAX_RANK],
            offset: 0,
            storage: Storage::Heap(buf.rc),
        }
    }

    /// A block filled with `value`.
    pub fn full(shape: Vec<usize>, value: f64) -> Block {
        if shape.is_empty() {
            return Block::scalar(value);
        }
        // A broadcast view of one element: full blocks are constant, so
        // every dimension can stride 0 over a single slot.
        let (rank, s) = pack_shape(&shape);
        Block {
            rank,
            shape: s,
            strides: [0; MAX_RANK],
            offset: 0,
            storage: Storage::Heap(Rc::new(vec![value])),
        }
    }

    /// `[0, 1, ..., len-1]`.
    pub fn iota(len: usize) -> Block {
        Block::from_vec(vec![len], (0..len).map(|i| i as f64).collect())
    }

    /// The logical shape (empty for scalars).
    pub fn shape(&self) -> &[usize] {
        &self.shape[..self.rank as usize]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// True if the block has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar value of a rank-0 or single-element block.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty.
    pub fn first(&self) -> f64 {
        match &self.storage {
            Storage::Inline(v) => *v,
            Storage::Heap(data) => data[self.offset],
        }
    }

    /// True when logical order equals storage order with no gaps, i.e.
    /// the block can be read as a flat slice.
    pub fn is_contiguous(&self) -> bool {
        match &self.storage {
            Storage::Inline(_) => true,
            Storage::Heap(_) => {
                let mut acc = 1usize;
                for d in (0..self.rank as usize).rev() {
                    if self.shape[d] != 1 && self.strides[d] != acc {
                        return false;
                    }
                    acc *= self.shape[d];
                }
                true
            }
        }
    }

    /// The elements as a flat row-major slice, if contiguous.
    pub fn as_slice(&self) -> Option<&[f64]> {
        match &self.storage {
            Storage::Inline(_) => None,
            Storage::Heap(data) if self.is_contiguous() => {
                Some(&data[self.offset..self.offset + self.len()])
            }
            Storage::Heap(_) => None,
        }
    }

    /// Elements in logical row-major order as a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.walk(|v| out.push(v));
        out
    }

    /// Append this block, broadcast to `shape`, to `out` in logical
    /// row-major order — what `broadcast_to(shape).walk(|v| out.push(v))`
    /// appends, a row at a time: a contiguous row is one copy, a
    /// broadcast row one fill. Always inlined, so it runs at the vector
    /// width of the value body that stages through it.
    ///
    /// # Panics
    ///
    /// Panics if the block cannot broadcast to `shape`.
    #[inline(always)]
    pub(crate) fn extend_broadcast(&self, shape: &[usize], out: &mut Vec<f64>) {
        let n: usize = shape.iter().product();
        if let Storage::Inline(v) = self.storage {
            // A scalar broadcasts to any shape.
            out.extend(std::iter::repeat_n(v, n));
            return;
        }
        let view = self.broadcast_view(shape);
        if n == 0 {
            return;
        }
        let (dims, st) = view.dims4();
        let data = view.storage_slice();
        let inner = dims[3];
        out.reserve(n);
        let mut o0 = view.offset;
        for _ in 0..dims[0] {
            let mut o1 = o0;
            for _ in 0..dims[1] {
                let mut o2 = o1;
                for _ in 0..dims[2] {
                    match st[3] {
                        1 => out.extend_from_slice(&data[o2..o2 + inner]),
                        0 => out.extend(std::iter::repeat_n(data[o2], inner)),
                        s => out.extend((0..inner).map(|t| data[o2 + t * s])),
                    }
                    o2 += st[2];
                }
                o1 += st[1];
            }
            o0 += st[0];
        }
    }

    /// Shape and strides padded to `MAX_RANK` with leading unit dims.
    /// The walkers iterate these four fixed loops.
    #[inline]
    fn dims4(&self) -> ([usize; MAX_RANK], [usize; MAX_RANK]) {
        let rank = self.rank as usize;
        let pad = MAX_RANK - rank;
        let mut shape = [1usize; MAX_RANK];
        let mut strides = [0usize; MAX_RANK];
        shape[pad..].copy_from_slice(&self.shape[..rank]);
        strides[pad..].copy_from_slice(&self.strides[..rank]);
        (shape, strides)
    }

    /// Visit every element in logical row-major order.
    #[inline]
    pub fn walk<F: FnMut(f64)>(&self, mut f: F) {
        if let Some(s) = self.as_slice() {
            for &v in s {
                f(v);
            }
            return;
        }
        if let Storage::Inline(v) = self.storage {
            // Rank 0 ⇒ exactly one element.
            f(v);
            return;
        }
        let Storage::Heap(data) = &self.storage else {
            unreachable!()
        };
        let (shape, st) = self.dims4();
        let mut o0 = self.offset;
        for _ in 0..shape[0] {
            let mut o1 = o0;
            for _ in 0..shape[1] {
                let mut o2 = o1;
                for _ in 0..shape[2] {
                    let mut o3 = o2;
                    for _ in 0..shape[3] {
                        f(data[o3]);
                        o3 += st[3];
                    }
                    o2 += st[2];
                }
                o1 += st[1];
            }
            o0 += st[0];
        }
    }

    /// The backing slice a non-scalar view indexes into; scalars expose a
    /// one-element slice via a broadcast-view conversion first.
    #[inline]
    fn storage_slice(&self) -> &[f64] {
        match &self.storage {
            Storage::Heap(data) => data,
            Storage::Inline(v) => std::slice::from_ref(v),
        }
    }

    /// Insert a size-1 axis at `axis` (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if `axis > rank` or the result exceeds `MAX_RANK`.
    pub fn expand_dims(&self, axis: usize) -> Block {
        let rank = self.rank as usize;
        assert!(axis <= rank, "expand_dims axis out of range");
        assert!(rank < MAX_RANK, "expand_dims beyond rank {MAX_RANK}");
        let mut shape = [1usize; MAX_RANK];
        let mut strides = [0usize; MAX_RANK];
        shape[..axis].copy_from_slice(&self.shape[..axis]);
        strides[..axis].copy_from_slice(&self.strides[..axis]);
        shape[axis] = 1;
        strides[axis] = 0;
        shape[axis + 1..=rank].copy_from_slice(&self.shape[axis..rank]);
        strides[axis + 1..=rank].copy_from_slice(&self.strides[axis..rank]);
        Block {
            rank: self.rank + 1,
            shape,
            strides,
            offset: self.offset,
            storage: self.storage.clone(),
        }
    }

    /// Reshape (same volume). Zero-copy when the block is contiguous;
    /// otherwise materializes once.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn view(&self, shape: Vec<usize>) -> Block {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.len(),
            "view changes volume"
        );
        if self.is_contiguous() {
            if shape.is_empty() {
                return Block::scalar(self.first());
            }
            let (rank, s) = pack_shape(&shape);
            return Block {
                rank,
                shape: s,
                strides: contiguous_strides(&s, rank as usize),
                offset: self.offset,
                storage: self.storage.clone(),
            };
        }
        Block::from_vec(shape, self.to_vec())
    }

    /// 2-D transpose (zero-copy stride swap).
    ///
    /// # Panics
    ///
    /// Panics unless the block is rank 2.
    pub fn trans(&self) -> Block {
        assert_eq!(self.rank, 2, "trans requires a rank-2 block");
        let mut out = self.clone();
        out.shape.swap(0, 1);
        out.strides.swap(0, 1);
        out
    }

    /// Broadcast to a larger shape, NumPy rules (zero-copy: broadcast
    /// dims get stride 0).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn broadcast_to(&self, shape: &[usize]) -> Block {
        self.broadcast_view(shape)
    }

    fn broadcast_view(&self, shape: &[usize]) -> Block {
        let rank = self.rank as usize;
        if self.shape() == shape {
            return self.clone();
        }
        let nd = shape.len();
        assert!(nd >= rank, "broadcast cannot reduce rank");
        assert!(nd <= MAX_RANK, "block rank {nd} exceeds {MAX_RANK}");
        let pad = nd - rank;
        let mut new_shape = [1usize; MAX_RANK];
        let mut new_strides = [0usize; MAX_RANK];
        new_shape[..nd].copy_from_slice(shape);
        for d in 0..rank {
            let dim = self.shape[d];
            let target = shape[pad + d];
            assert!(
                dim == target || dim == 1,
                "cannot broadcast {:?} to {:?}",
                self.shape(),
                shape
            );
            new_strides[pad + d] = if dim == 1 { 0 } else { self.strides[d] };
        }
        let storage = match &self.storage {
            // Promote inline scalars so the walkers have a slice.
            Storage::Inline(v) => Storage::Heap(Rc::new(vec![*v])),
            heap => heap.clone(),
        };
        Block {
            rank: nd as u8,
            shape: new_shape,
            strides: new_strides,
            offset: self.offset,
            storage,
        }
    }

    /// Scalar ∘ scalar without touching the heap (the loop-counter
    /// arithmetic path); `None` when either operand is non-scalar.
    pub fn try_scalar_binary(op: BinOp, a: &Block, b: &Block) -> Option<Block> {
        if let (Storage::Inline(x), Storage::Inline(y)) = (&a.storage, &b.storage) {
            return Some(Block::scalar(apply_binop(op, *x, *y)));
        }
        None
    }

    /// Elementwise binary op with broadcasting, writing into `buf`
    /// (cleared; used as the output allocation so register slots can be
    /// recycled across iterations).
    ///
    /// The op dispatch happens once out here so each operator gets fully
    /// monomorphized inner loops.
    pub fn binary_with(op: BinOp, a: &Block, b: &Block, buf: PoolBuf) -> Block {
        Block::binary_with_on(elementwise_isa(), op, a, b, buf)
    }

    /// [`Block::binary_with`] at a named rung.
    fn binary_with_on(isa: Isa, op: BinOp, a: &Block, b: &Block, buf: PoolBuf) -> Block {
        struct BinaryWith<'a>(BinOp, &'a Block, &'a Block, PoolBuf);
        impl Body for BinaryWith<'_> {
            type Out = Block;
            #[inline(always)]
            fn run(self) -> Block {
                let BinaryWith(op, a, b, buf) = self;
                Block::binary_with_body(op, a, b, buf)
            }
        }
        isa.run(BinaryWith(op, a, b, buf))
    }

    #[inline(always)]
    fn binary_with_body(op: BinOp, a: &Block, b: &Block, buf: PoolBuf) -> Block {
        match op {
            BinOp::Add => Block::binary_impl(a, b, buf, |x, y| x + y),
            BinOp::Sub => Block::binary_impl(a, b, buf, |x, y| x - y),
            BinOp::Mul => Block::binary_impl(a, b, buf, |x, y| x * y),
            BinOp::Div => Block::binary_impl(a, b, buf, |x, y| x / y),
            BinOp::FloorDiv => Block::binary_impl(a, b, buf, |x, y| (x / y).floor()),
            BinOp::Mod => Block::binary_impl(a, b, buf, |x, y| x - (x / y).floor() * y),
            BinOp::Min => Block::binary_impl(a, b, buf, f64::min),
            BinOp::Max => Block::binary_impl(a, b, buf, f64::max),
            BinOp::Lt => Block::binary_impl(a, b, buf, |x, y| f64::from(x < y)),
            BinOp::Le => Block::binary_impl(a, b, buf, |x, y| f64::from(x <= y)),
            BinOp::Eq => Block::binary_impl(a, b, buf, |x, y| f64::from(x == y)),
            BinOp::Ge => Block::binary_impl(a, b, buf, |x, y| f64::from(x >= y)),
            BinOp::And => Block::binary_impl(a, b, buf, |x, y| f64::from(x != 0.0 && y != 0.0)),
        }
    }

    /// Elementwise `a = a <op> b` in place, when `a` is contiguous,
    /// uniquely-owned heap storage and `b` is a scalar or has the same
    /// shape (the compiled accumulator pattern `acc = acc + v`). Returns
    /// false — leaving `a` untouched — when the layout doesn't allow it.
    pub fn binary_assign(op: BinOp, a: &mut Block, b: &Block) -> bool {
        Block::binary_assign_on(elementwise_isa(), op, a, b)
    }

    /// [`Block::binary_assign`] at a named rung.
    fn binary_assign_on(isa: Isa, op: BinOp, a: &mut Block, b: &Block) -> bool {
        struct BinaryAssign<'a>(BinOp, &'a mut Block, &'a Block);
        impl Body for BinaryAssign<'_> {
            type Out = bool;
            #[inline(always)]
            fn run(self) -> bool {
                let BinaryAssign(op, a, b) = self;
                Block::binary_assign_body(op, a, b)
            }
        }
        isa.run(BinaryAssign(op, a, b))
    }

    #[inline(always)]
    fn binary_assign_body(op: BinOp, a: &mut Block, b: &Block) -> bool {
        match op {
            BinOp::Add => Block::binary_assign_impl(a, b, |x, y| x + y),
            BinOp::Sub => Block::binary_assign_impl(a, b, |x, y| x - y),
            BinOp::Mul => Block::binary_assign_impl(a, b, |x, y| x * y),
            BinOp::Div => Block::binary_assign_impl(a, b, |x, y| x / y),
            BinOp::FloorDiv => Block::binary_assign_impl(a, b, |x, y| (x / y).floor()),
            BinOp::Mod => Block::binary_assign_impl(a, b, |x, y| x - (x / y).floor() * y),
            BinOp::Min => Block::binary_assign_impl(a, b, f64::min),
            BinOp::Max => Block::binary_assign_impl(a, b, f64::max),
            BinOp::Lt => Block::binary_assign_impl(a, b, |x, y| f64::from(x < y)),
            BinOp::Le => Block::binary_assign_impl(a, b, |x, y| f64::from(x <= y)),
            BinOp::Eq => Block::binary_assign_impl(a, b, |x, y| f64::from(x == y)),
            BinOp::Ge => Block::binary_assign_impl(a, b, |x, y| f64::from(x >= y)),
            BinOp::And => Block::binary_assign_impl(a, b, |x, y| f64::from(x != 0.0 && y != 0.0)),
        }
    }

    #[inline(always)]
    fn binary_assign_impl<F: Fn(f64, f64) -> f64 + Copy>(a: &mut Block, b: &Block, f: F) -> bool {
        if !(b.rank == 0 || (a.shape() == b.shape() && b.as_slice().is_some())) {
            return false;
        }
        if !a.is_contiguous() {
            return false;
        }
        let n = a.len();
        let offset = a.offset;
        let Storage::Heap(rc) = &mut a.storage else {
            return false;
        };
        let Some(data) = Rc::get_mut(rc) else {
            return false;
        };
        let dst = &mut data[offset..offset + n];
        if b.rank == 0 {
            let y = b.first();
            for x in dst.iter_mut() {
                *x = f(*x, y);
            }
        } else {
            let sb = b.as_slice().expect("checked above");
            for (x, &y) in dst.iter_mut().zip(sb) {
                *x = f(*x, y);
            }
        }
        true
    }

    #[inline(always)]
    fn binary_impl<F: Fn(f64, f64) -> f64 + Copy>(
        a: &Block,
        b: &Block,
        mut buf: PoolBuf,
        f: F,
    ) -> Block {
        // Scalar ∘ scalar stays inline: this is the loop-counter
        // arithmetic path, which must not allocate.
        if let (Storage::Inline(x), Storage::Inline(y)) = (&a.storage, &b.storage) {
            return Block::scalar(f(*x, *y));
        }
        let out = buf.vec();
        out.clear();
        // Scalar-operand fast paths avoid joint-shape work entirely.
        if b.rank == 0 {
            let y = b.first();
            if let Some(sa) = a.as_slice() {
                out.extend(sa.iter().map(|&x| f(x, y)));
            } else {
                out.reserve(a.len());
                a.walk(|x| out.push(f(x, y)));
            }
            return Block::from_packed(a.shape4(), buf);
        }
        if a.rank == 0 {
            let x = a.first();
            if let Some(sb) = b.as_slice() {
                out.extend(sb.iter().map(|&y| f(x, y)));
            } else {
                out.reserve(b.len());
                b.walk(|y| out.push(f(x, y)));
            }
            return Block::from_packed(b.shape4(), buf);
        }
        if a.shape() == b.shape() {
            if let (Some(sa), Some(sb)) = (a.as_slice(), b.as_slice()) {
                out.extend(sa.iter().zip(sb).map(|(&x, &y)| f(x, y)));
                return Block::from_packed(a.shape4(), buf);
            }
        }
        let joint = Shape4::joint(a.shape(), b.shape());
        let av = a.broadcast_view(joint.as_slice());
        let bv = b.broadcast_view(joint.as_slice());
        let n: usize = joint.volume();
        out.reserve(n);
        let (shape, sa) = av.dims4();
        let (_, sb) = bv.dims4();
        let da = av.storage_slice();
        let db = bv.storage_slice();
        let inner = shape[3];
        // Rows append through exact-size iterators (no per-element
        // capacity checks); the three stride regimes of the innermost
        // axis get dedicated loops so LLVM can unswitch and vectorize.
        let (mut a0, mut b0) = (av.offset, bv.offset);
        for _ in 0..shape[0] {
            let (mut a1, mut b1) = (a0, b0);
            for _ in 0..shape[1] {
                let (mut a2, mut b2) = (a1, b1);
                for _ in 0..shape[2] {
                    let (pa, pb) = (a2, b2);
                    if sa[3] == 1 && sb[3] == 1 {
                        let ra = &da[pa..pa + inner];
                        let rb = &db[pb..pb + inner];
                        out.extend(ra.iter().zip(rb).map(|(&x, &y)| f(x, y)));
                    } else if sa[3] == 1 && sb[3] == 0 {
                        let ra = &da[pa..pa + inner];
                        let y = db[pb];
                        out.extend(ra.iter().map(|&x| f(x, y)));
                    } else if sa[3] == 0 && sb[3] == 1 {
                        let x = da[pa];
                        let rb = &db[pb..pb + inner];
                        out.extend(rb.iter().map(|&y| f(x, y)));
                    } else if sa[3] == 0 && sb[3] == 0 {
                        // Both rows constant (analytic zero blocks).
                        out.extend(std::iter::repeat_n(f(da[pa], db[pb]), inner));
                    } else {
                        for t in 0..inner {
                            out.push(f(da[pa + t * sa[3]], db[pb + t * sb[3]]));
                        }
                    }
                    a2 += sa[2];
                    b2 += sb[2];
                }
                a1 += sa[1];
                b1 += sb[1];
            }
            a0 += sa[0];
            b0 += sb[0];
        }
        Block::from_packed(joint, buf)
    }

    /// Sum over one axis (rank decreases by one).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Block {
        let rank = self.rank as usize;
        assert!(axis < rank, "sum axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..rank].iter().product();
        let mut shape = self.shape().to_vec();
        shape.remove(axis);
        let mut data = vec![0.0; outer * inner];
        if let Some(src) = self.as_slice() {
            for o in 0..outer {
                for m in 0..mid {
                    let s = (o * mid + m) * inner;
                    let d = o * inner;
                    for i in 0..inner {
                        data[d + i] += src[s + i];
                    }
                }
            }
        } else {
            // Strided source: iterate logical order, accumulating into
            // the (outer, inner) slot — the accumulation order per slot
            // matches the contiguous path (ascending m), so results are
            // bit-identical.
            let mut lane = 0usize;
            self.walk(|v| {
                let o = lane / (mid * inner);
                let i = lane % inner;
                data[o * inner + i] += v;
                lane += 1;
            });
        }
        Block::from_vec(shape, data)
    }

    /// Matrix multiply of rank-2 blocks `[m, k] x [k, n] -> [m, n]`
    /// (`tl.dot`'s definition), writing into a recycled pool buffer.
    ///
    /// The output tiles along columns with a stack-resident accumulator,
    /// so the `c` row is not reloaded from memory on every `l` step. For
    /// each output element the reduction still runs in ascending `l`
    /// order with the same zero-skip as the seed implementation, so
    /// results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn dot_with(a: &Block, b: &Block, buf: PoolBuf) -> Block {
        Block::canonical_dot_on(elementwise_isa(), a, b, buf)
    }

    /// The canonical `tl.dot` loop at a named rung.
    fn canonical_dot_on(isa: Isa, a: &Block, b: &Block, buf: PoolBuf) -> Block {
        struct CanonicalDot<'a>(&'a Block, &'a Block, PoolBuf);
        impl Body for CanonicalDot<'_> {
            type Out = Block;
            #[inline(always)]
            fn run(self) -> Block {
                let CanonicalDot(a, b, buf) = self;
                Block::dot_with_body(a, b, buf)
            }
        }
        isa.run(CanonicalDot(a, b, buf))
    }

    #[inline(always)]
    fn dot_with_body(a: &Block, b: &Block, mut buf: PoolBuf) -> Block {
        assert_eq!(a.rank, 2, "dot lhs must be rank 2");
        assert_eq!(b.rank, 2, "dot rhs must be rank 2");
        let (m, k) = (a.shape[0], a.shape[1]);
        let (k2, n) = (b.shape[0], b.shape[1]);
        assert_eq!(k, k2, "dot inner dimensions disagree");
        // Per output row: collect the nonzero lhs entries once (the
        // seed's zero-skip, hoisted out of the column loop), then sweep
        // the columns with the widest tile that still fits — 32, 16, 8,
        // 4, then single columns — so a 16-wide conv or TP dot is one
        // vector tile, not sixteen scalar chains. This loop defines
        // `tl.dot`; the fused kernel in `exact_dot` may stand in for it
        // only on operands whose products are exact.
        let data = buf.vec();
        data.clear();
        data.reserve(m * n);
        let da = a.storage_slice();
        let db = b.storage_slice();
        let (sa0, sa1) = (a.strides[0], a.strides[1]);
        let (sb0, sb1) = (b.strides[0], b.strides[1]);
        // The nonzero list lives on the stack at every contraction
        // extent the code generator emits (R tiles are ≤ 32).
        let mut nz_stack = [(0.0f64, 0usize); NZ_STACK];
        let mut nz_heap = Vec::new();
        let nz_buf: &mut [(f64, usize)] = if k <= NZ_STACK {
            &mut nz_stack[..k]
        } else {
            nz_heap.resize(k, (0.0, 0));
            &mut nz_heap
        };
        for i in 0..m {
            let arow = a.offset + i * sa0;
            let mut count = 0usize;
            for l in 0..k {
                let av = da[arow + l * sa1];
                // Written always, kept when nonzero (`count <= l`).
                nz_buf[count] = (av, b.offset + l * sb0);
                count += usize::from(av != 0.0);
            }
            let nz = &nz_buf[..count];
            let mut j0 = 0usize;
            // Row-major append: i ascending, j0 ascending.
            dot_tiles::<32>(nz, db, sb1, &mut j0, n, data);
            dot_tiles::<16>(nz, db, sb1, &mut j0, n, data);
            dot_tiles::<8>(nz, db, sb1, &mut j0, n, data);
            dot_tiles::<4>(nz, db, sb1, &mut j0, n, data);
            dot_tiles::<1>(nz, db, sb1, &mut j0, n, data);
        }
        Block::from_packed(
            Shape4 {
                rank: 2,
                dims: [m, n, 1, 1],
            },
            buf,
        )
    }

    /// True when every element is finite and f32-representable — the
    /// exact-product kernel's eligibility predicate, spelled out. The
    /// interpreter decides eligibility without looking at the data (see
    /// `exact_dot`); this O(len) form backs its debug assertion and the
    /// kernel equivalence tests.
    #[doc(hidden)]
    pub fn is_f32_exact(&self) -> bool {
        let mut ok = true;
        self.walk(|v| ok &= exact_dot::f32_exact(v));
        ok
    }

    /// [`Block::dot_with`] for operands the caller knows to be finite
    /// and f32-representable in every element: served by the
    /// exact-product FMA kernel where the host has one, with the same
    /// bits as the canonical loop (`exact_dot` has the proof). Operand
    /// layouts the kernel does not take (B rows not unit-stride) and
    /// hosts without FMA run the canonical loop; the flag says whether
    /// the FMA kernel ran, which is what the dispatch counter counts.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub(crate) fn dot_exact_with(a: &Block, b: &Block, buf: PoolBuf) -> (Block, bool) {
        Block::dot_on_with(Isa::detect(), a, b, buf)
    }

    /// Run one named `tl.dot` implementation on f32-exact operands:
    /// the kernel equivalence tests call every implementation the host
    /// has through this, not through a switch.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch, or if `isa` is not
    /// available on this host.
    #[doc(hidden)]
    pub fn dot_on(isa: Isa, a: &Block, b: &Block) -> Block {
        Block::dot_on_with(isa, a, b, PoolBuf::new()).0
    }

    /// This rank-2 block as a strided kernel operand.
    #[cfg(target_arch = "x86_64")]
    fn mat(&self) -> exact_dot::Mat<'_> {
        exact_dot::Mat {
            data: self.storage_slice(),
            offset: self.offset,
            rows: self.shape[0],
            cols: self.shape[1],
            s0: self.strides[0],
            s1: self.strides[1],
        }
    }

    fn dot_on_with(isa: Isa, a: &Block, b: &Block, mut buf: PoolBuf) -> (Block, bool) {
        debug_assert!(
            a.is_f32_exact() && b.is_f32_exact(),
            "exact dot dispatched on an operand that is not finite and f32-representable"
        );
        assert!(isa.available(), "{isa:?} is not available on this host");
        if isa == Isa::Portable {
            return (Block::dot_with_body(a, b, buf), false);
        }
        assert_eq!(a.rank, 2, "dot lhs must be rank 2");
        assert_eq!(b.rank, 2, "dot rhs must be rank 2");
        let (m, n) = (a.shape[0], b.shape[1]);
        if n > 1 && b.strides[1] != 1 {
            return (Block::dot_with(a, b, buf), false);
        }
        #[cfg(target_arch = "x86_64")]
        {
            let out = buf.vec();
            out.clear();
            out.resize(m * n, 0.0);
            exact_dot::matmul(isa, a.mat(), b.mat(), out);
            let shape = Shape4 {
                rank: 2,
                dims: [m, n, 1, 1],
            };
            (Block::from_packed(shape, buf), true)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("only the portable implementation is available off x86-64")
    }

    /// Try to reclaim this block's heap buffer (with its refcount block)
    /// for reuse; succeeds when nothing else shares the storage.
    pub(crate) fn reclaim(self) -> Option<PoolBuf> {
        match self.storage {
            Storage::Inline(_) => None,
            Storage::Heap(mut rc) => {
                if Rc::get_mut(&mut rc).is_some() {
                    Some(PoolBuf { rc })
                } else {
                    None
                }
            }
        }
    }
}

/// Contraction extents up to this keep `tl.dot`'s per-row nonzero list
/// on the stack.
const NZ_STACK: usize = 64;

/// Columns `j0..` of one `tl.dot` output row, in `W`-wide tiles while a
/// whole tile fits: `W` accumulators that unroll into SIMD registers,
/// advanced together through the row's nonzero terms `(a[i, l], index of
/// b[l, 0])` — a branchless multiply then add, two roundings per term,
/// ascending `l` per column. The one tile body of the canonical loop;
/// `W` only sets how many columns advance together.
#[inline(always)]
fn dot_tiles<const W: usize>(
    nz: &[(f64, usize)],
    db: &[f64],
    sb1: usize,
    j0: &mut usize,
    n: usize,
    out: &mut Vec<f64>,
) {
    while *j0 + W <= n {
        let mut acc = [0.0f64; W];
        if sb1 == 1 {
            for &(av, lbase) in nz {
                let bs = &db[lbase + *j0..][..W];
                for t in 0..W {
                    acc[t] += av * bs[t];
                }
            }
        } else {
            for &(av, lbase) in nz {
                for (t, at) in acc.iter_mut().enumerate() {
                    *at += av * db[lbase + (*j0 + t) * sb1];
                }
            }
        }
        out.extend_from_slice(&acc);
        *j0 += W;
    }
}

/// One scalar application of a [`BinOp`].
#[inline]
pub(crate) fn apply_binop(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::FloorDiv => (x / y).floor(),
        BinOp::Mod => x - (x / y).floor() * y,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::Lt => f64::from(x < y),
        BinOp::Le => f64::from(x <= y),
        BinOp::Eq => f64::from(x == y),
        BinOp::Ge => f64::from(x >= y),
        BinOp::And => f64::from(x != 0.0 && y != 0.0),
    }
}

impl PartialEq for Block {
    /// Logical equality: same shape and same elements (representation —
    /// strides, sharing, inline vs heap — is invisible).
    fn eq(&self, other: &Block) -> bool {
        self.shape() == other.shape() && self.to_vec() == other.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary(op: BinOp, a: &Block, b: &Block) -> Block {
        Block::binary_with(op, a, b, PoolBuf::new())
    }

    fn dot(a: &Block, b: &Block) -> Block {
        Block::dot_with(a, b, PoolBuf::new())
    }

    #[test]
    fn iota_and_full() {
        assert_eq!(Block::iota(3).to_vec(), vec![0.0, 1.0, 2.0]);
        assert_eq!(Block::full(vec![2, 2], 7.0).to_vec(), vec![7.0; 4]);
    }

    #[test]
    fn expand_and_broadcast() {
        let r = Block::iota(3).expand_dims(0); // [1,3]
        assert_eq!(r.shape(), &[1, 3]);
        let b = r.broadcast_to(&[2, 3]);
        assert_eq!(b.to_vec(), vec![0.0, 1.0, 2.0, 0.0, 1.0, 2.0]);
        let c = Block::iota(2).expand_dims(1).broadcast_to(&[2, 3]);
        assert_eq!(c.to_vec(), vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn binary_broadcasting_matrix() {
        // y[:,None] * 4 + x[None,:] — the flattened-offset pattern.
        let y = Block::iota(2).expand_dims(1);
        let x = Block::iota(4).expand_dims(0);
        let four = Block::scalar(4.0);
        let off = binary(BinOp::Add, &binary(BinOp::Mul, &y, &four), &x);
        assert_eq!(off.shape(), &[2, 4]);
        assert_eq!(off.to_vec(), vec![0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn comparison_produces_masks() {
        let x = Block::iota(4);
        let two = Block::scalar(2.0);
        let m = binary(BinOp::Lt, &x, &two);
        assert_eq!(m.to_vec(), vec![1.0, 1.0, 0.0, 0.0]);
        let m2 = binary(BinOp::Ge, &x, &two);
        let both = binary(BinOp::And, &m, &m2);
        assert_eq!(both.to_vec(), vec![0.0; 4]);
    }

    #[test]
    fn floor_div_and_mod() {
        let x = Block::iota(6);
        let three = Block::scalar(3.0);
        let d = binary(BinOp::FloorDiv, &x, &three);
        let m = binary(BinOp::Mod, &x, &three);
        assert_eq!(d.to_vec(), vec![0., 0., 0., 1., 1., 1.]);
        assert_eq!(m.to_vec(), vec![0., 1., 2., 0., 1., 2.]);
    }

    #[test]
    fn trans_and_view() {
        let x = Block::from_vec(vec![2, 3], (0..6).map(|v| v as f64).collect());
        let t = x.trans();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.to_vec(), vec![0., 3., 1., 4., 2., 5.]);
        let v = x.view(vec![3, 2]);
        assert_eq!(v.to_vec(), x.to_vec());
    }

    #[test]
    fn view_of_transposed_materializes() {
        let x = Block::from_vec(vec![2, 3], (0..6).map(|v| v as f64).collect());
        let t = x.trans();
        assert!(!t.is_contiguous());
        let flat = t.view(vec![6]);
        assert_eq!(flat.to_vec(), vec![0., 3., 1., 4., 2., 5.]);
        assert!(flat.is_contiguous());
    }

    #[test]
    fn sum_axis_reduces() {
        let x = Block::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(x.sum_axis(1).to_vec(), vec![6.0, 15.0]);
        assert_eq!(x.sum_axis(0).to_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis_on_strided_matches_contiguous() {
        let x = Block::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = x.trans(); // [3, 2], strided
        let want = Block::from_vec(vec![3, 2], t.to_vec());
        assert_eq!(t.sum_axis(0).to_vec(), want.sum_axis(0).to_vec());
        assert_eq!(t.sum_axis(1).to_vec(), want.sum_axis(1).to_vec());
    }

    #[test]
    fn dot_matches_reference() {
        let a = Block::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Block::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = dot(&a, &b);
        assert_eq!(c.to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn dot_with_strided_operands() {
        let a = Block::from_vec(vec![3, 2], vec![1., 4., 2., 5., 3., 6.]).trans(); // [2,3]
        let b = Block::from_vec(vec![2, 3], vec![7., 9., 11., 8., 10., 12.]).trans(); // [3,2]
        let c = dot(&a, &b);
        assert_eq!(c.to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn every_dot_kernel_honours_view_offsets() {
        // No public transform produces an offset view today, so the
        // integration tests cannot; build two by hand to pin the
        // kernels' base-pointer arithmetic anyway.
        let store = Rc::new((0..64).map(|v| v as f64 * 0.5 - 7.0).collect::<Vec<f64>>());
        let window = |shape: [usize; 2], row_stride: usize, offset: usize| Block {
            rank: 2,
            shape: [shape[0], shape[1], 1, 1],
            strides: [row_stride, 1, 0, 0],
            offset,
            storage: Storage::Heap(store.clone()),
        };
        let a = window([3, 4], 5, 7);
        let b = window([4, 6], 9, 3);
        let bits = |x: Block| x.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let want = bits(dot(
            &Block::from_vec(vec![3, 4], a.to_vec()),
            &Block::from_vec(vec![4, 6], b.to_vec()),
        ));
        for isa in Isa::ALL.into_iter().filter(|i| i.available()) {
            assert_eq!(bits(Block::dot_on(isa, &a, &b)), want, "{isa:?}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dot_shape_mismatch_panics() {
        let a = Block::full(vec![2, 3], 1.0);
        let b = Block::full(vec![2, 2], 1.0);
        dot(&a, &b);
    }

    #[test]
    fn scalar_fast_paths() {
        let x = Block::iota(3);
        let s = Block::scalar(10.0);
        assert_eq!(binary(BinOp::Add, &x, &s).to_vec(), vec![10., 11., 12.]);
        assert_eq!(binary(BinOp::Sub, &s, &x).to_vec(), vec![10., 9., 8.]);
    }

    #[test]
    fn scalar_ops_stay_inline() {
        let a = Block::scalar(3.0);
        let b = Block::scalar(4.0);
        let c = binary(BinOp::Mul, &a, &b);
        assert!(matches!(c.storage, Storage::Inline(v) if v == 12.0));
    }

    #[test]
    fn zero_copy_transforms_share_storage() {
        let x = Block::iota(16);
        let v = x.view(vec![4, 4]);
        let t = v.trans();
        let b = t.broadcast_to(&[2, 4, 4]);
        let (Storage::Heap(dx), Storage::Heap(db)) = (&x.storage, &b.storage) else {
            panic!("expected heap storage");
        };
        assert!(
            Rc::ptr_eq(dx, db),
            "expand/view/trans/broadcast must not copy"
        );
    }

    #[test]
    fn buffer_reclaim_respects_sharing() {
        let x = Block::iota(8);
        let alias = x.clone();
        assert!(
            x.reclaim().is_none(),
            "shared storage must not be reclaimed"
        );
        assert!(alias.reclaim().is_some(), "sole owner reclaims");
        assert!(Block::scalar(1.0).reclaim().is_none());
    }

    const OPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::FloorDiv,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Eq,
        BinOp::Ge,
        BinOp::And,
    ];

    /// `n` values for the forced-rung differentials: ordinary numbers
    /// (zeros of both signs among them) beside ±Inf, f64 extremes and —
    /// with `nan` — quiet NaNs with payloads of both signs. Callers put
    /// NaNs into one operand only: where two NaNs meet, which payload
    /// survives is the compiler's choice, not the rung's.
    fn payloads(n: usize, seed: u64, nan: bool) -> Vec<f64> {
        let specials = [
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -5e-324,
            0.1,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff8_0000_0000_1234),
        ];
        let usable = if nan {
            specials.len()
        } else {
            specials.len() - 2
        };
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (s >> 33) as usize;
                match r % 4 {
                    0 => specials[r / 4 % usable],
                    _ => (r % 2001) as f64 / 8.0 - 125.0,
                }
            })
            .collect()
    }

    fn bit_vec(x: &Block) -> Vec<u64> {
        x.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    fn rungs() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.available()).collect()
    }

    /// The operand pairs at row length `len`: equal shapes, scalars on
    /// either side, row and column broadcasts (a stride-0 view among
    /// them), a transposed view, 1-D rows. NaNs only on the left.
    fn operand_pairs(len: usize) -> Vec<(Block, Block)> {
        let a = Block::from_vec(vec![3, len], payloads(3 * len, len as u64, true));
        let b = |shape: Vec<usize>, seed| {
            let n = shape.iter().product();
            Block::from_vec(shape, payloads(n, seed, false))
        };
        let nan = Block::scalar(f64::from_bits(0x7ff8_0000_0000_0042));
        vec![
            (a.clone(), b(vec![3, len], 1)),
            (a.clone(), Block::scalar(-2.5)),
            (nan, b(vec![3, len], 2)),
            (a.clone(), b(vec![1, len], 3)),
            (a.clone(), b(vec![1, len], 4).broadcast_to(&[3, len])),
            // (A `[3, 1]` column against `[3, 0]` rows: `Shape4::joint` takes
            // the larger extent, 1, which the rows cannot broadcast to.)
            (a.clone(), b(vec![3, len.min(1)], 5)),
            (
                Block::from_vec(vec![len, 3], payloads(3 * len, 6, true)).trans(),
                b(vec![3, len], 7),
            ),
            (
                Block::from_vec(vec![len], payloads(len, 8, true)),
                b(vec![len], 9),
            ),
        ]
    }

    /// `binary_with` and `binary_assign` at every rung the host has,
    /// bit for bit against `Portable`, for every operator over rows of
    /// 0..=33 elements.
    #[test]
    fn elementwise_bodies_are_the_portable_bits_at_every_rung() {
        for len in 0..=33 {
            for (a, b) in operand_pairs(len) {
                for op in OPS {
                    let with =
                        |isa| bit_vec(&Block::binary_with_on(isa, op, &a, &b, PoolBuf::new()));
                    let assign = |isa| {
                        let mut acc = Block::from_vec(a.shape().to_vec(), a.to_vec());
                        let done = Block::binary_assign_on(isa, op, &mut acc, &b);
                        (done, bit_vec(&acc))
                    };
                    let (want, want_assign) = (with(Isa::Portable), assign(Isa::Portable));
                    for isa in rungs() {
                        assert_eq!(with(isa), want, "{op:?}, len {len}, {isa:?}");
                        assert_eq!(assign(isa), want_assign, "{op:?}=, len {len}, {isa:?}");
                    }
                }
            }
        }
    }

    /// The canonical `tl.dot` loop at every rung, bit for bit against
    /// `Portable`: output rows of 0..=33 columns (every tile of the
    /// 32/16/8/4/1 ladder), contiguous, transposed and row-broadcast B,
    /// zeros of both signs, one NaN or ±Inf planted per dot.
    #[test]
    fn the_canonical_dot_is_the_portable_bits_at_every_rung() {
        let plants = [
            None,
            Some(f64::from_bits(0x7ff8_0000_dead_beef)),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
        ];
        let ordinary = |n: usize, seed: u64| -> Vec<f64> {
            payloads(n, seed, false)
                .into_iter()
                .map(|v| {
                    if v.is_finite() && v.abs() < 1e3 {
                        v
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        for n in 0..=33 {
            for k in [0usize, 1, 5, 33] {
                for layout in 0..3 {
                    for plant in plants {
                        let mut av = ordinary(3 * k, (n * 7 + k) as u64);
                        if let (Some(v), true) = (plant, k > 0) {
                            av[(n + k) % (3 * k)] = v;
                        }
                        let a = Block::from_vec(vec![3, k], av);
                        let b = match layout {
                            0 => Block::from_vec(vec![k, n], ordinary(k * n, 11)),
                            1 => Block::from_vec(vec![n, k], ordinary(k * n, 12)).trans(),
                            _ => Block::from_vec(vec![1, n], ordinary(n, 13)).broadcast_to(&[k, n]),
                        };
                        let dot =
                            |isa| bit_vec(&Block::canonical_dot_on(isa, &a, &b, PoolBuf::new()));
                        let want = dot(Isa::Portable);
                        for isa in rungs() {
                            assert_eq!(
                                dot(isa),
                                want,
                                "3x{k}x{n}, B layout {layout}, {plant:?}, {isa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Staging a broadcast value row by row appends what the element
    /// walk appends, for scalars, row and column broadcasts, strided and
    /// contiguous blocks.
    #[test]
    fn broadcast_staging_is_the_walk() {
        for len in 0..=33 {
            let shape = [3, len];
            let values = [
                Block::scalar(-0.0),
                Block::from_vec(vec![len], payloads(len, 1, true)),
                Block::from_vec(vec![3, 1], payloads(3, 2, true)),
                Block::from_vec(vec![1, len], payloads(len, 3, true)),
                Block::from_vec(vec![len, 3], payloads(3 * len, 4, true)).trans(),
                Block::from_vec(vec![3, len], payloads(3 * len, 5, true)),
            ];
            for v in values {
                let mut want = Vec::new();
                v.broadcast_to(&shape).walk(|x| want.push(x.to_bits()));
                let mut got = vec![1.0];
                v.extend_broadcast(&shape, &mut got);
                let got: Vec<u64> = got[1..].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{:?} to {shape:?}", v.shape());
            }
        }
    }
}
