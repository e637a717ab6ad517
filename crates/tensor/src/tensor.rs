//! The core dense tensor type.

use crate::broadcast::broadcast_shapes;
use crate::dtype::DType;
use crate::error::TensorError;
use crate::f16::{f16_round, f16_round_slice};
use crate::Result;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Process-wide count of buffer materializations (see
/// [`Tensor::deep_copy_count`]). Incremented only when shared storage is
/// actually copied, so the relaxed atomic add is amortized by the O(n)
/// copy it accounts for.
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// A dense n-dimensional array of `f32` values with a simulated
/// [`DType`] tag. Storage is row-major contiguous unless the handle is a
/// *strided view* ([`Tensor::permute_view`], [`Tensor::diagonal_view`]):
/// those reinterpret shared storage through non-canonical strides without
/// touching a byte — the fast-path dispatch layer's zero-copy transpose.
///
/// `Tensor` is the common currency of the whole reproduction: the eager
/// graph interpreter, the sparse format converters, and the GPU simulator
/// all read and produce `Tensor`s. A scalar is represented as a tensor with
/// an empty shape (`ndim() == 0`, one element).
///
/// # Storage model: shared, copy-on-write
///
/// Element storage is an [`Arc`]-backed buffer. `Clone` is O(1) — the
/// clone shares the same buffer — as are [`Tensor::reshape`],
/// [`Tensor::view`], and [`Tensor::unsqueeze`] (the layout is always
/// row-major contiguous, so a reshape is pure metadata). The first
/// mutation through a handle whose buffer is shared
/// ([`Tensor::data_mut`], [`Tensor::set`], [`Tensor::index_add`])
/// materializes a private copy of the buffer, so writes are never
/// observable through any other handle: every `Tensor` behaves exactly
/// like the deep-copy value type it replaced, it just defers the copy
/// until (and unless) a write happens. [`Tensor::deep_copy_count`]
/// counts the materializations process-wide for clone-accounting checks.
///
/// Two handles can be tested for storage identity with
/// [`Tensor::ptr_eq`]: a `true` result proves them bit-identical without
/// reading the data.
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Arc<Vec<f32>>,
    dtype: DType,
}

/// What [`Tensor::ptr_eq`] needs of a tensor, without keeping its
/// elements alive: made by [`Tensor::downgrade`], asked with
/// [`WeakTensor::ptr_eq`]. It neither delays the buffer's release when the
/// last handle drops nor makes a sole owner's next write copy; while it
/// lives the allocation's address is not reused, so a buffer that was
/// freed — or written, which re-homes it — never matches again.
#[derive(Clone, Debug)]
pub struct WeakTensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Weak<Vec<f32>>,
    dtype: DType,
}

impl WeakTensor {
    /// [`Tensor::ptr_eq`] between the tensor this was made from and
    /// `other`.
    pub fn ptr_eq(&self, other: &Tensor) -> bool {
        std::ptr::eq(self.data.as_ptr(), Arc::as_ptr(&other.data))
            && self.shape == other.shape
            && self.strides == other.strides
            && self.dtype == other.dtype
    }
}

/// Logical equality: shape, dtype, and element values in *logical*
/// (row-major index) order, with IEEE float semantics — so `NaN != NaN`
/// regardless of storage sharing. Strides are layout metadata, not
/// identity: a transpose view compares equal to its materialized copy,
/// and tensors that reached the same shape through different
/// construction paths compare equal. Use [`Tensor::ptr_eq`] for a cheap
/// storage-identity check or [`Tensor::bit_eq`] for bit-exact
/// (NaN-inclusive) comparison instead.
impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self.dtype == other.dtype
            && *self.contiguous_data() == *other.contiguous_data()
    }
}

fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= dim;
    }
    strides
}

fn volume(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Create a tensor of zeros with dtype [`DType::F32`].
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n = volume(&shape);
        Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data: Arc::new(vec![0.0; n]),
            dtype: DType::F32,
        }
    }

    /// Create a tensor of zeros with the given dtype.
    pub fn zeros_with(shape: Vec<usize>, dtype: DType) -> Tensor {
        let mut t = Tensor::zeros(shape);
        t.dtype = dtype;
        t
    }

    /// Create a tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Create a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Tensor {
        let n = volume(&shape);
        Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data: Arc::new(vec![value; n]),
            dtype: DType::F32,
        }
    }

    /// Create a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor {
            shape: vec![],
            strides: vec![],
            data: Arc::new(vec![value]),
            dtype: DType::F32,
        }
    }

    /// Create the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros(vec![n, n]);
        let d = t.buf_mut();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    /// Create a tensor from raw data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Tensor> {
        let n = volume(&shape);
        if data.len() != n {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data: Arc::new(data),
            dtype: DType::F32,
        })
    }

    /// Create a tensor from raw data in row-major order with an explicit
    /// dtype, preserving every bit of `data`.
    ///
    /// Unlike [`Tensor::cast`], an [`DType::F16`] dtype does *not*
    /// re-round the values: the caller asserts they are already
    /// binary16-representable. This is the deserialization entry point
    /// for wire formats, where re-rounding would quietly canonicalize
    /// NaN payloads and break bit-exact round trips.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec_with(shape: Vec<usize>, data: Vec<f32>, dtype: DType) -> Result<Tensor> {
        let mut t = Tensor::from_vec(shape, data)?;
        t.dtype = dtype;
        Ok(t)
    }

    /// Create an integer (metadata) tensor from `i64` coordinates.
    ///
    /// Values are stored exactly (all coordinates in this reproduction fit
    /// in the 24-bit exact-integer range of `f32`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] on a shape/data disagreement.
    pub fn from_indices(shape: Vec<usize>, data: Vec<i64>) -> Result<Tensor> {
        let mut t = Tensor::from_vec(shape, data.into_iter().map(|v| v as f32).collect())?;
        t.dtype = DType::I32;
        Ok(t)
    }

    /// Build a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(&[usize]) -> f32) -> Tensor {
        let n = volume(&shape);
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..n {
            data.push(f(&idx));
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data: Arc::new(data),
            dtype: DType::F32,
        }
    }

    /// `[0, 1, ..., n-1]` as an I32 tensor.
    pub fn arange(n: usize) -> Tensor {
        let mut t = Tensor::from_fn(vec![n], |i| i[0] as f32);
        t.dtype = DType::I32;
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape (extent of each dimension).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Row-major element strides.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of (logical) elements. For strided views this can be
    /// smaller than the backing storage (a diagonal view of an `n`×`n`
    /// matrix has `n` elements over `n²` storage).
    pub fn len(&self) -> usize {
        volume(&self.shape)
    }

    /// True if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The simulated element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Bytes this tensor occupies on the simulated device.
    pub fn device_bytes(&self) -> usize {
        self.len() * self.dtype.size_bytes()
    }

    /// The raw row-major data. Only meaningful when the handle is
    /// contiguous (storage order == logical order); strided views must go
    /// through [`Tensor::contiguous_data`] or [`Tensor::at`] instead, and
    /// this asserts as much in debug builds.
    pub fn data(&self) -> &[f32] {
        debug_assert!(
            self.is_contiguous(),
            "Tensor::data() on a non-contiguous view (shape {:?}, strides {:?}); \
             use contiguous_data()/contiguous()",
            self.shape,
            self.strides
        );
        &self.data
    }

    /// True when storage order equals logical row-major order and the
    /// buffer holds exactly the logical elements — i.e. this handle is
    /// not a strided view.
    pub fn is_contiguous(&self) -> bool {
        self.strides == contiguous_strides(&self.shape) && self.data.len() == self.len()
    }

    /// The elements in logical row-major order: a zero-cost borrow for
    /// contiguous tensors, a gathered copy for strided views. The gather
    /// is a read (it materializes nothing into the handle), so it does
    /// not count toward [`Tensor::deep_copy_count`].
    pub fn contiguous_data(&self) -> Cow<'_, [f32]> {
        if self.is_contiguous() {
            Cow::Borrowed(&self.data)
        } else {
            Cow::Owned(self.gather_logical())
        }
    }

    /// Gather the logical elements of a strided view into a fresh
    /// row-major vector.
    fn gather_logical(&self) -> Vec<f32> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let nd = self.ndim();
        let mut idx = vec![0usize; nd];
        for _ in 0..n {
            let mut off = 0usize;
            for (i, s) in idx.iter().zip(&self.strides) {
                off += i * s;
            }
            out.push(self.data[off]);
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// A contiguous tensor with the same logical contents: `self` cloned
    /// when already contiguous (O(1), shares storage), otherwise a
    /// materializing gather — which counts as a deep copy, exactly like
    /// any other storage materialization.
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            return self.clone();
        }
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        Tensor {
            strides: contiguous_strides(&self.shape),
            shape: self.shape.clone(),
            data: Arc::new(self.gather_logical()),
            dtype: self.dtype,
        }
    }

    /// Copy-on-write access to the backing buffer: materializes a private
    /// copy (and counts it) when the storage is shared, then hands out
    /// the uniquely owned vector.
    fn buf_mut(&mut self) -> &mut Vec<f32> {
        // A [`WeakTensor`] does not share the storage: with one
        // outstanding and no other handle, `make_mut` moves the vector to
        // a new allocation (the witness then matches nothing) and copies
        // no element.
        if Arc::strong_count(&self.data) > 1 {
            DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        }
        Arc::make_mut(&mut self.data)
    }

    /// Mutable access to the raw row-major data.
    ///
    /// If the storage is shared with other handles (clones, views), this
    /// first materializes a private copy — writes are never observable
    /// through any other `Tensor`. A strided view is first gathered into
    /// canonical layout (also counted as a deep copy), so the slice is
    /// always in logical row-major order. Callers are responsible for
    /// preserving the dtype's value invariant (use [`Tensor::cast`] to
    /// re-round after bulk writes to an F16 tensor).
    pub fn data_mut(&mut self) -> &mut [f32] {
        if !self.is_contiguous() {
            DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
            self.data = Arc::new(self.gather_logical());
            self.strides = contiguous_strides(&self.shape);
        }
        self.buf_mut()
    }

    /// Consume the tensor and return its raw data in logical row-major
    /// order (copying only if the storage is still shared with another
    /// handle, or if this handle is a strided view).
    pub fn into_data(self) -> Vec<f32> {
        if !self.is_contiguous() {
            DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
            return self.gather_logical();
        }
        match Arc::try_unwrap(self.data) {
            Ok(data) => data,
            Err(shared) => {
                DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
                shared.as_ref().clone()
            }
        }
    }

    /// True if `self` and `other` share the same backing buffer *and*
    /// interpret it identically (equal shape, strides, and dtype) — a
    /// cheap proof of bit-identity that never reads the data. `false`
    /// says nothing: separately built tensors with equal contents are not
    /// `ptr_eq`.
    pub fn ptr_eq(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
            && self.shape == other.shape
            && self.strides == other.strides
            && self.dtype == other.dtype
    }

    /// A witness of this handle's identity that owns nothing: see
    /// [`WeakTensor`].
    pub fn downgrade(&self) -> WeakTensor {
        WeakTensor {
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            data: Arc::downgrade(&self.data),
            dtype: self.dtype,
        }
    }

    /// True if `self` and `other` share the same backing buffer, whatever
    /// their layout metadata — the assertion a zero-copy view check
    /// wants (`transposed.shares_storage(&original)` proves no bytes
    /// moved even though shape and strides differ).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Bit-exact equality: equal shape, dtype, and element *bits* in
    /// logical order — `NaN` payloads and the sign of zero included.
    /// This is the comparison the fast-path-vs-general bit-identity
    /// contract is stated in (IEEE `==` would pass `-0.0` vs `+0.0` and
    /// fail `NaN` vs `NaN`).
    pub fn bit_eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self.dtype == other.dtype
            && self
                .contiguous_data()
                .iter()
                .zip(other.contiguous_data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// A cheap FNV-1a fingerprint of the logical content: dtype, shape,
    /// and every element's bits in row-major order. Equal fingerprints on
    /// equal-shape/dtype tensors make bit-identity overwhelmingly likely
    /// (the serve scheduler uses this as the content-identity fallback
    /// behind [`Tensor::ptr_eq`] when grouping launch-compatible
    /// requests); it is not a cryptographic guarantee.
    pub fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        };
        mix(match self.dtype {
            DType::F16 => 1,
            DType::F32 => 2,
            DType::I32 => 3,
        });
        for &d in &self.shape {
            for b in (d as u64).to_le_bytes() {
                mix(b);
            }
        }
        for v in self.contiguous_data().iter() {
            for b in v.to_bits().to_le_bytes() {
                mix(b);
            }
        }
        h
    }

    /// Process-wide count of storage materializations: the number of
    /// times a shared buffer had to be deep-copied (first write through a
    /// sharing handle, or [`Tensor::into_data`] on shared storage).
    /// Cheap clones, views, and fresh allocations do not count. Intended
    /// for clone-accounting smoke checks (`servebench --smoke` asserts a
    /// warm batched launch of shared-argument analytic requests performs
    /// zero deep copies).
    pub fn deep_copy_count() -> u64 {
        DEEP_COPIES.load(Ordering::Relaxed)
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != ndim()` or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.ndim(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &s)) in index.iter().zip(&self.strides).enumerate() {
            assert!(
                i < self.shape[d],
                "index {i} out of bounds for dim {d} (size {})",
                self.shape[d]
            );
            off += i * s;
        }
        off
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Set the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        let v = if self.dtype == DType::F16 {
            f16_round(value)
        } else {
            value
        };
        self.buf_mut()[off] = v;
    }

    /// Element interpreted as an integer index (for metadata tensors).
    pub fn at_i64(&self, index: &[usize]) -> i64 {
        self.at(index) as i64
    }

    // ------------------------------------------------------------------
    // DType
    // ------------------------------------------------------------------

    /// Cast to another dtype.
    ///
    /// Casting to F16 rounds every element through binary16; casting to I32
    /// truncates toward zero.
    pub fn cast(&self, dtype: DType) -> Tensor {
        // Storage is always f32, so retagging to F32 transforms no
        // values: the cast shares the buffer (strided views stay views).
        if dtype == DType::F32 {
            return Tensor {
                shape: self.shape.clone(),
                strides: self.strides.clone(),
                data: Arc::clone(&self.data),
                dtype,
            };
        }
        let src = self.contiguous_data();
        let data = match dtype {
            DType::F16 => {
                let mut data = src.into_owned();
                f16_round_slice(&mut data);
                data
            }
            DType::I32 => src.iter().map(|&v| v.trunc()).collect(),
            DType::F32 => unreachable!("handled above"),
        };
        Tensor {
            strides: contiguous_strides(&self.shape),
            shape: self.shape.clone(),
            data: Arc::new(data),
            dtype,
        }
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reshape to a new shape with the same volume.
    ///
    /// Zero-copy for contiguous tensors: the result is a new handle onto
    /// the same shared storage (copy-on-write like any clone). A strided
    /// view is gathered into canonical layout first (counted as a deep
    /// copy) — its storage order does not match the requested shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor> {
        if volume(&shape) != self.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape".into(),
                detail: format!(
                    "cannot view {:?} ({} elems) as {:?}",
                    self.shape,
                    self.len(),
                    shape
                ),
            });
        }
        let data = if self.is_contiguous() {
            Arc::clone(&self.data)
        } else {
            DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.gather_logical())
        };
        Ok(Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data,
            dtype: self.dtype,
        })
    }

    /// A zero-copy view of the same storage under a new shape (PyTorch
    /// `view`); identical to [`Tensor::reshape`], which never copies
    /// because tensors are always row-major contiguous.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the volumes differ.
    pub fn view(&self, shape: Vec<usize>) -> Result<Tensor> {
        self.reshape(shape)
    }

    /// Permute dimensions; `perm` must be a permutation of `0..ndim()`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `perm` is not a valid
    /// permutation.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let nd = self.ndim();
        let mut seen = vec![false; nd];
        if perm.len() != nd
            || perm
                .iter()
                .any(|&p| p >= nd || std::mem::replace(&mut seen[p], true))
        {
            return Err(TensorError::ShapeMismatch {
                op: "permute".into(),
                detail: format!("{perm:?} is not a permutation of 0..{nd}"),
            });
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut out = Tensor::zeros_with(new_shape.clone(), self.dtype);
        let od = out.buf_mut();
        let mut idx = vec![0usize; nd];
        let mut src = vec![0usize; nd];
        for slot in od.iter_mut() {
            for (d, &p) in perm.iter().enumerate() {
                src[p] = idx[d];
            }
            *slot = self.at(&src);
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < new_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(out)
    }

    /// Swap two dimensions (PyTorch `transpose`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if either axis is out of range.
    pub fn transpose(&self, a: usize, b: usize) -> Result<Tensor> {
        let nd = self.ndim();
        if a >= nd || b >= nd {
            return Err(TensorError::ShapeMismatch {
                op: "transpose".into(),
                detail: format!("axes ({a},{b}) out of range for rank {nd}"),
            });
        }
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Zero-copy permutation: a strided view whose axis `d` is `self`'s
    /// axis `perm[d]`. No element moves — shape and strides are permuted
    /// over the same shared storage, so this is O(rank) whatever the
    /// tensor size. This is the execution target the fast-path dispatcher
    /// uses for transpose-shaped einsums; materialize with
    /// [`Tensor::contiguous`] when canonical layout is needed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `perm` is not a valid
    /// permutation of `0..ndim()`.
    pub fn permute_view(&self, perm: &[usize]) -> Result<Tensor> {
        let nd = self.ndim();
        let mut seen = vec![false; nd];
        if perm.len() != nd
            || perm
                .iter()
                .any(|&p| p >= nd || std::mem::replace(&mut seen[p], true))
        {
            return Err(TensorError::ShapeMismatch {
                op: "permute_view".into(),
                detail: format!("{perm:?} is not a permutation of 0..{nd}"),
            });
        }
        Ok(Tensor {
            shape: perm.iter().map(|&p| self.shape[p]).collect(),
            strides: perm.iter().map(|&p| self.strides[p]).collect(),
            data: Arc::clone(&self.data),
            dtype: self.dtype,
        })
    }

    /// Zero-copy main diagonal of a square matrix: a rank-1 strided view
    /// of length `n` whose stride is the sum of both axis strides. No
    /// element moves — the fast-path execution target for `ii->i`-shaped
    /// einsums.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is a square
    /// rank-2 tensor.
    pub fn diagonal_view(&self) -> Result<Tensor> {
        if self.ndim() != 2 || self.shape[0] != self.shape[1] {
            return Err(TensorError::ShapeMismatch {
                op: "diagonal_view".into(),
                detail: format!("diagonal needs a square matrix, got {:?}", self.shape),
            });
        }
        Ok(Tensor {
            shape: vec![self.shape[0]],
            strides: vec![self.strides[0] + self.strides[1]],
            data: Arc::clone(&self.data),
            dtype: self.dtype,
        })
    }

    /// Insert a size-1 dimension at `dim` (PyTorch `unsqueeze`).
    ///
    /// # Panics
    ///
    /// Panics if `dim > ndim()`.
    pub fn unsqueeze(&self, dim: usize) -> Tensor {
        assert!(dim <= self.ndim(), "unsqueeze dim out of range");
        let mut shape = self.shape.clone();
        shape.insert(dim, 1);
        self.reshape(shape).expect("unsqueeze preserves volume")
    }

    /// Broadcast to a larger shape following NumPy rules.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Tensor> {
        let joint =
            broadcast_shapes(&self.shape, shape).ok_or_else(|| TensorError::ShapeMismatch {
                op: "broadcast_to".into(),
                detail: format!("{:?} cannot broadcast to {:?}", self.shape, shape),
            })?;
        if joint != shape {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast_to".into(),
                detail: format!(
                    "{:?} broadcasts to {:?}, not requested {:?}",
                    self.shape, joint, shape
                ),
            });
        }
        let nd = shape.len();
        let pad = nd - self.ndim();
        let mut out = Tensor::zeros_with(shape.to_vec(), self.dtype);
        let od = out.buf_mut();
        let mut idx = vec![0usize; nd];
        let mut src = vec![0usize; self.ndim()];
        for slot in od.iter_mut() {
            for d in pad..nd {
                src[d - pad] = if self.shape[d - pad] == 1 { 0 } else { idx[d] };
            }
            *slot = self.at(&src);
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elementwise and reductions
    // ------------------------------------------------------------------

    /// Apply `f` to every element, producing a new (contiguous) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let round = self.dtype == DType::F16;
        let data = self
            .contiguous_data()
            .iter()
            .map(|&v| {
                let r = f(v);
                if round {
                    f16_round(r)
                } else {
                    r
                }
            })
            .collect();
        Tensor {
            strides: contiguous_strides(&self.shape),
            shape: self.shape.clone(),
            data: Arc::new(data),
            dtype: self.dtype,
        }
    }

    /// Combine two tensors elementwise with NumPy broadcasting.
    ///
    /// The result dtype is the wider of the two operand dtypes (F32 wins
    /// over F16; float wins over I32).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes do not broadcast.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        let shape = broadcast_shapes(&self.shape, &other.shape).ok_or_else(|| {
            TensorError::ShapeMismatch {
                op: "elementwise".into(),
                detail: format!("{:?} vs {:?}", self.shape, other.shape),
            }
        })?;
        let dtype = match (self.dtype, other.dtype) {
            (DType::F32, _) | (_, DType::F32) => DType::F32,
            (DType::F16, _) | (_, DType::F16) => DType::F16,
            _ => DType::I32,
        };
        let a = self.broadcast_to(&shape)?;
        let b = other.broadcast_to(&shape)?;
        let round = dtype == DType::F16;
        let data = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(&x, &y)| {
                let r = f(x, y);
                if round {
                    f16_round(r)
                } else {
                    r
                }
            })
            .collect();
        Ok(Tensor {
            strides: contiguous_strides(&shape),
            shape,
            data: Arc::new(data),
            dtype,
        })
    }

    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum over the given axes (kept axes retain their extent).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if an axis is out of range.
    pub fn sum_axes(&self, axes: &[usize]) -> Result<Tensor> {
        let nd = self.ndim();
        for &a in axes {
            if a >= nd {
                return Err(TensorError::ShapeMismatch {
                    op: "sum".into(),
                    detail: format!("axis {a} out of range for rank {nd}"),
                });
            }
        }
        let keep: Vec<usize> = (0..nd).filter(|d| !axes.contains(d)).collect();
        let out_shape: Vec<usize> = keep.iter().map(|&d| self.shape[d]).collect();
        let mut out = Tensor::zeros_with(out_shape.clone(), self.dtype);
        let src = self.contiguous_data();
        let od = out.buf_mut();
        let mut idx = vec![0usize; nd];
        for i in 0..volume(&self.shape) {
            let mut off = 0usize;
            let mut stride = 1usize;
            for &d in keep.iter().rev() {
                off += idx[d] * stride;
                stride *= self.shape[d];
            }
            od[off] += src[i];
            for d in (0..nd).rev() {
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        if self.dtype == DType::F16 {
            out = out.cast(DType::F16);
        }
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.contiguous_data().iter().sum()
    }

    /// Maximum element (NaN-free data assumed). Returns `-inf` when empty.
    pub fn max(&self) -> f32 {
        self.contiguous_data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-free data assumed). Returns `+inf` when empty.
    pub fn min(&self) -> f32 {
        self.contiguous_data()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Mean absolute value; 0 for empty tensors.
    pub fn mean_abs(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let src = self.contiguous_data();
        src.iter().map(|v| v.abs()).sum::<f32>() / src.len() as f32
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is `[m, k]` and
    /// `other` is `[k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul".into(),
                detail: format!("{:?} x {:?}", self.shape, other.shape),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = Tensor::zeros(vec![m, n]);
        let lhs = self.contiguous_data();
        let rhs = other.contiguous_data();
        let od = out.buf_mut();
        for i in 0..m {
            for l in 0..k {
                let a = lhs[i * k + l];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    od[i * n + j] += a * rhs[l * n + j];
                }
            }
        }
        out.dtype = if self.dtype == DType::F16 && other.dtype == DType::F16 {
            // Tensor-core style: f16 inputs, f32 accumulate, f16 store.
            return Ok(out.cast(DType::F16));
        } else {
            DType::F32
        };
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Comparison
    // ------------------------------------------------------------------

    /// True if both tensors have the same shape and all elements satisfy
    /// `|a - b| <= atol + rtol * |b|`.
    pub fn allclose(&self, other: &Tensor, rtol: f32, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .contiguous_data()
                .iter()
                .zip(other.contiguous_data().iter())
                .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// Largest absolute elementwise difference; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.contiguous_data()
                .iter()
                .zip(other.contiguous_data().iter())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f32::max),
        )
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, dtype={}", self.shape, self.dtype)?;
        if !self.is_contiguous() {
            write!(f, ", strides={:?}", self.strides)?;
        }
        if self.len() <= 16 {
            write!(f, ", data={:?}", self.contiguous_data())?;
        } else {
            write!(f, ", data=[{} elems]", self.len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that assert exact `deep_copy_count` deltas
    /// (the counter is process-wide and tests run concurrently).
    static COUNT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(vec![4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(vec![2, 2], 2.5);
        assert_eq!(f.at(&[1, 1]), 2.5);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(7.0);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.at(&[]), 7.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn strides_are_row_major() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.strides(), &[12, 4, 1]);
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        let t = Tensor::zeros(vec![2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn eye_and_matmul() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(6).cast(DType::F32);
        let r = t.reshape(vec![2, 3]).unwrap();
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn permute_and_transpose() {
        let t = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let p = t.transpose(0, 1).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.at(&[2, 1]), 5.0);
        assert_eq!(p.at(&[0, 1]), 3.0);
        // permute validation
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_fn(vec![2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), 123.0);
    }

    #[test]
    fn unsqueeze_inserts_axis() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.unsqueeze(0).shape(), &[1, 2, 3]);
        assert_eq!(t.unsqueeze(2).shape(), &[2, 3, 1]);
    }

    #[test]
    fn broadcast_to_expands() {
        let t = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = t.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(b.at(&[0, 1]), 2.0);
        assert_eq!(b.at(&[1, 2]), 3.0);
        assert!(t.broadcast_to(&[2, 4]).is_err());
    }

    #[test]
    fn elementwise_broadcasting() {
        let a = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![1, 3], vec![10.0, 20.0, 30.0]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.at(&[1, 2]), 32.0);
        let d = a.mul(&b).unwrap();
        assert_eq!(d.at(&[1, 0]), 20.0);
    }

    #[test]
    fn sum_axes_keeps_others() {
        let t = Tensor::from_fn(vec![2, 3, 4], |_| 1.0);
        let s = t.sum_axes(&[1]).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        assert!(s.data().iter().all(|&v| v == 3.0));
        let s2 = t.sum_axes(&[0, 2]).unwrap();
        assert_eq!(s2.shape(), &[3]);
        assert!(s2.data().iter().all(|&v| v == 8.0));
        assert!(t.sum_axes(&[3]).is_err());
    }

    #[test]
    fn f16_cast_rounds_values() {
        let t = Tensor::from_vec(vec![2], vec![0.1, 1.0]).unwrap();
        let h = t.cast(DType::F16);
        assert_eq!(h.dtype(), DType::F16);
        assert_ne!(h.data()[0], 0.1);
        assert_eq!(h.data()[1], 1.0);
        assert_eq!(h.device_bytes(), 4); // 2 elems * 2 bytes
    }

    #[test]
    fn f16_arithmetic_rounds() {
        let a = Tensor::from_vec(vec![1], vec![1.0])
            .unwrap()
            .cast(DType::F16);
        let b = Tensor::from_vec(vec![1], vec![1e-4])
            .unwrap()
            .cast(DType::F16);
        // 1.0 + 1e-4 rounds back to 1.0 in f16 (ulp at 1.0 is ~9.8e-4).
        let c = a.add(&b).unwrap();
        assert_eq!(c.data()[0], 1.0);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![1.0 + 1e-7, 2.0]).unwrap();
        assert!(a.allclose(&b, 1e-5, 1e-6));
        let c = Tensor::from_vec(vec![2], vec![1.5, 2.0]).unwrap();
        assert!(!a.allclose(&c, 1e-5, 1e-6));
        assert!((a.max_abs_diff(&c).unwrap() - 0.5).abs() < 1e-6);
        assert!(a.max_abs_diff(&Tensor::zeros(vec![3])).is_none());
    }

    #[test]
    fn arange_is_i32() {
        let t = Tensor::arange(5);
        assert_eq!(t.dtype(), DType::I32);
        assert_eq!(t.at_i64(&[3]), 3);
    }

    #[test]
    fn from_fn_ordering() {
        let t = Tensor::from_fn(vec![2, 2], |i| (i[0] * 2 + i[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn clone_shares_storage_and_copies_on_write() {
        let _serial = COUNT_LOCK.lock().unwrap();
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut b = a.clone();
        assert!(a.ptr_eq(&b), "clone shares the buffer");
        b.set(&[0, 0], 9.0);
        assert!(!a.ptr_eq(&b), "first write materializes a private copy");
        assert_eq!(a.at(&[0, 0]), 1.0, "writes never leak to the source");
        assert_eq!(b.at(&[0, 0]), 9.0);
        // Once unique, further writes stay in place.
        let before = Tensor::deep_copy_count();
        b.set(&[0, 1], 8.0);
        b.data_mut()[2] = 7.0;
        assert_eq!(Tensor::deep_copy_count(), before, "unique writes are free");
    }

    #[test]
    fn weak_witness_owns_nothing_and_never_matches_new_storage() {
        let _serial = COUNT_LOCK.lock().unwrap();
        let mut a = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = a.downgrade();
        assert!(w.ptr_eq(&a) && w.ptr_eq(&a.clone()));
        assert!(!w.ptr_eq(&a.reshape(vec![2, 2]).unwrap()));
        // A sole owner's write copies no element and re-homes the buffer.
        let before = Tensor::deep_copy_count();
        a.data_mut()[0] = 9.0;
        assert_eq!(Tensor::deep_copy_count(), before);
        assert!(!w.ptr_eq(&a), "written storage is new storage");
        assert_eq!(a.data(), &[9.0, 2.0, 3.0, 4.0]);
        // Freed storage matches no later tensor, whatever the allocator
        // hands out.
        let w = a.downgrade();
        drop(a);
        let b = Tensor::from_vec(vec![4], vec![9.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(!w.ptr_eq(&b));
    }

    #[test]
    fn reshape_and_view_are_zero_copy() {
        // Takes the lock because the write below materializes shared
        // storage, which would race the exact counter asserts.
        let _serial = COUNT_LOCK.lock().unwrap();
        let a = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = a.reshape(vec![3, 2]).unwrap();
        let v = a.view(vec![6]).unwrap();
        assert!(
            !a.ptr_eq(&r),
            "different shape: not the same tensor identity"
        );
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert_eq!(v.at(&[4]), 4.0);
        // Writing through the view must not leak into the original.
        let mut v = v;
        v.set(&[0], 99.0);
        assert_eq!(a.at(&[0, 0]), 0.0);
        assert_eq!(v.at(&[0]), 99.0);
    }

    #[test]
    fn ptr_eq_requires_identical_interpretation() {
        let a = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        // Same storage, different shape or dtype: not ptr_eq.
        assert!(!a.ptr_eq(&a.reshape(vec![2, 2]).unwrap()));
        assert!(!a.ptr_eq(&a.cast(DType::F16)));
        // Equal contents, separate storage: not ptr_eq, but ==.
        let c = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(!a.ptr_eq(&c));
        assert_eq!(a, c);
    }

    #[test]
    fn cast_to_f32_shares_storage() {
        let a = Tensor::arange(8);
        let f = a.cast(DType::F32);
        assert_eq!(f.dtype(), DType::F32);
        assert!(
            Arc::ptr_eq(&a.data, &f.data),
            "retagging transforms no values"
        );
        let h = Tensor::from_vec(vec![2], vec![0.1, 0.2])
            .unwrap()
            .cast(DType::F16);
        assert!(!Arc::ptr_eq(&a.data, &h.data));
    }

    #[test]
    fn partial_eq_is_layout_independent() {
        // Logical equality must not depend on how the shape was reached
        // or how the elements are laid out: a strided view compares equal
        // to its materialized copy.
        let canonical = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let view = canonical.permute_view(&[1, 0]).unwrap();
        assert_eq!(view, canonical.transpose(0, 1).unwrap());
        assert_eq!(view.permute_view(&[1, 0]).unwrap(), canonical);
        // Shape and dtype still distinguish.
        assert_ne!(canonical, canonical.reshape(vec![4]).unwrap());
        assert_ne!(
            Tensor::zeros(vec![2]),
            Tensor::zeros_with(vec![2], DType::I32)
        );
        // And through different construction paths.
        let rebuilt = canonical
            .reshape(vec![4])
            .unwrap()
            .reshape(vec![2, 2])
            .unwrap();
        assert_eq!(canonical, rebuilt);
        assert_eq!(
            canonical,
            canonical.transpose(0, 1).unwrap().transpose(0, 1).unwrap()
        );
    }

    #[test]
    fn permute_view_is_zero_copy_and_correct() {
        let _serial = COUNT_LOCK.lock().unwrap();
        let t = Tensor::from_fn(vec![2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let before = Tensor::deep_copy_count();
        let v = t.permute_view(&[2, 0, 1]).unwrap();
        assert_eq!(Tensor::deep_copy_count(), before, "views move no bytes");
        assert!(v.shares_storage(&t));
        assert!(!v.is_contiguous());
        assert_eq!(v.shape(), &[4, 2, 3]);
        assert_eq!(v.len(), 24);
        assert_eq!(v.at(&[3, 1, 2]), 123.0);
        // Bit-identical to the materializing permute.
        assert!(v.bit_eq(&t.permute(&[2, 0, 1]).unwrap()));
        // Materializing the view counts one deep copy and detaches.
        let c = v.contiguous();
        assert_eq!(Tensor::deep_copy_count(), before + 1);
        assert!(c.is_contiguous());
        assert!(!c.shares_storage(&t));
        assert!(c.bit_eq(&v));
        // contiguous() on an already-contiguous tensor is a free clone.
        let before = Tensor::deep_copy_count();
        let c2 = c.contiguous();
        assert_eq!(Tensor::deep_copy_count(), before);
        assert!(c2.shares_storage(&c));
        // Invalid permutations are rejected.
        assert!(t.permute_view(&[0, 0, 1]).is_err());
        assert!(t.permute_view(&[0]).is_err());
    }

    #[test]
    fn diagonal_view_is_zero_copy_and_correct() {
        let _serial = COUNT_LOCK.lock().unwrap();
        let t = Tensor::from_fn(vec![3, 3], |i| (i[0] * 10 + i[1]) as f32);
        let before = Tensor::deep_copy_count();
        let d = t.diagonal_view().unwrap();
        assert_eq!(Tensor::deep_copy_count(), before);
        assert!(d.shares_storage(&t));
        assert_eq!(d.shape(), &[3]);
        assert_eq!(d.len(), 3);
        assert_eq!(*d.contiguous_data(), [0.0, 11.0, 22.0]);
        assert!(t.diagonal_view().unwrap().ptr_eq(&d));
        assert!(Tensor::zeros(vec![2, 3]).diagonal_view().is_err());
        assert!(Tensor::zeros(vec![4]).diagonal_view().is_err());
    }

    #[test]
    fn view_writes_never_leak_and_reads_stay_logical() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut v = t.permute_view(&[1, 0]).unwrap();
        // set() through a view copies the storage first (copy-on-write).
        v.set(&[0, 1], 9.0); // logical [0,1] of the transpose == t[1,0]
        assert_eq!(t.at(&[1, 0]), 3.0, "original untouched");
        assert_eq!(v.at(&[0, 1]), 9.0);
        // data_mut gathers a view into logical order first.
        let mut v2 = t.permute_view(&[1, 0]).unwrap();
        v2.data_mut()[1] = 7.0; // logical index 1 == t[1,0]
        assert!(v2.is_contiguous());
        assert_eq!(v2.at(&[0, 1]), 7.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        // into_data returns logical order for views.
        let v3 = t.permute_view(&[1, 0]).unwrap();
        assert_eq!(v3.into_data(), vec![1.0, 3.0, 2.0, 4.0]);
        // reshape of a view gathers (logical order preserved).
        let r = t.permute_view(&[1, 0]).unwrap().reshape(vec![4]).unwrap();
        assert_eq!(r.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn bit_eq_distinguishes_nan_and_zero_signs() {
        let a = Tensor::from_vec(vec![3], vec![f32::NAN, -0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![f32::NAN, -0.0, 1.0]).unwrap();
        assert!(a.bit_eq(&b), "NaN == NaN under bit_eq");
        assert_ne!(a, b, "PartialEq keeps IEEE NaN semantics");
        let c = Tensor::from_vec(vec![3], vec![f32::NAN, 0.0, 1.0]).unwrap();
        assert!(!a.bit_eq(&c), "-0.0 vs +0.0 differ under bit_eq");
        assert!(!a.bit_eq(&a.reshape(vec![3, 1]).unwrap()));
    }

    #[test]
    fn content_fingerprint_tracks_logical_content() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        // Views fingerprint their logical content, not their storage.
        let v = a.permute_view(&[1, 0]).unwrap();
        assert_eq!(
            v.content_fingerprint(),
            a.transpose(0, 1).unwrap().content_fingerprint()
        );
        assert_ne!(a.content_fingerprint(), v.content_fingerprint());
        // Shape, dtype, and values all feed the hash.
        assert_ne!(
            a.content_fingerprint(),
            a.reshape(vec![4]).unwrap().content_fingerprint()
        );
        assert_ne!(
            a.content_fingerprint(),
            a.cast(DType::F16).content_fingerprint()
        );
        let mut c = b.clone();
        c.set(&[0, 0], -1.0);
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
        // -0.0 and +0.0 hash differently (bit-level content identity).
        let z1 = Tensor::from_vec(vec![1], vec![0.0]).unwrap();
        let z2 = Tensor::from_vec(vec![1], vec![-0.0]).unwrap();
        assert_ne!(z1.content_fingerprint(), z2.content_fingerprint());
    }

    #[test]
    fn into_data_avoids_copy_when_unique() {
        let _serial = COUNT_LOCK.lock().unwrap();
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let keep = a.clone();
        // Shared: into_data must copy so `keep` stays intact.
        let before = Tensor::deep_copy_count();
        let v = a.into_data();
        assert!(Tensor::deep_copy_count() > before);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(keep.data(), &[1.0, 2.0, 3.0]);
        // Unique: no copy.
        let before = Tensor::deep_copy_count();
        let v2 = keep.into_data();
        assert_eq!(Tensor::deep_copy_count(), before);
        assert_eq!(v2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(vec![2]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
        let big = Tensor::zeros(vec![100]);
        assert!(format!("{big:?}").contains("100 elems"));
    }
}
