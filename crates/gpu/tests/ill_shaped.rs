//! Kernels that pass `Kernel::validate` but apply a shape rule to blocks
//! it does not fit. Block shapes are a function of the kernel text, so
//! `Program::compile` proves each of these illegal and `launch` returns
//! `GpuError::Kernel` instead of reaching the interpreter.
//!
//! And kernels the seed interpreter runs but this simulator refuses, by
//! choice of scope: every Execute launch runs the index slice on the
//! machine and the value slice on the value tape, and a kernel that
//! cannot be split that way is a `GpuError::Kernel`, never a second value
//! path.

use insum_gpu::reference::launch_reference;
use insum_gpu::{launch, DeviceModel, GpuError, Mode};
use insum_kernel::{BinOp, Kernel, KernelBuilder, Reg};
use insum_tensor::Tensor;

/// Build a one-parameter kernel whose body is `body`, check that it
/// validates, and launch it.
fn launched(body: impl FnOnce(&mut KernelBuilder) -> Reg) -> Result<(), GpuError> {
    let mut b = KernelBuilder::new("ill_shaped");
    let y = b.output("Y");
    let lanes = b.arange(4);
    let value = body(&mut b);
    let zero = b.constant(0.0);
    let first = b.binary(BinOp::Mul, lanes, zero);
    let value = b.sum(value, 0);
    b.store(y, first, value, None);
    let kernel = b.build();
    kernel.validate().expect("structurally valid");
    let mut out = Tensor::zeros(vec![4]);
    launch(
        &kernel,
        &[1],
        &mut [&mut out],
        &DeviceModel::rtx3090(),
        Mode::Execute,
    )
    .map(|_| ())
}

fn assert_rejected(result: Result<(), GpuError>) {
    assert!(
        matches!(result, Err(GpuError::Kernel(_))),
        "expected a kernel error, got {result:?}"
    );
}

#[test]
fn rank_5_full_is_rejected() {
    assert_rejected(launched(|b| b.full(vec![1, 1, 1, 1, 2], 0.0)));
}

#[test]
fn transpose_of_a_1d_block_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        b.trans(a)
    }));
}

#[test]
fn dot_of_1d_blocks_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        b.dot(a, a)
    }));
}

#[test]
fn dot_with_disagreeing_inner_dimensions_is_rejected() {
    assert_rejected(launched(|b| {
        let x = b.full(vec![2, 3], 1.0);
        let y = b.full(vec![4, 2], 1.0);
        b.dot(x, y)
    }));
}

#[test]
fn sum_over_a_missing_axis_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.full(vec![2, 3], 1.0);
        b.sum(a, 2)
    }));
}

#[test]
fn expand_dims_past_the_rank_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        b.expand_dims(a, 2)
    }));
}

#[test]
fn view_that_changes_volume_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        b.view(a, vec![3])
    }));
}

#[test]
fn broadcast_to_an_incompatible_shape_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        b.broadcast(a, vec![3])
    }));
}

#[test]
fn binary_of_incompatible_shapes_is_rejected() {
    assert_rejected(launched(|b| {
        let a = b.arange(4);
        let c = b.arange(3);
        b.binary(BinOp::Add, a, c)
    }));
}

/// Launch a kernel that stores — or, `atomic`, adds — `arange(value)` at
/// the offsets `arange(4)`, under a mask of `mask` lanes when given.
fn written(atomic: bool, value: usize, mask: Option<usize>) -> Result<(), GpuError> {
    let mut b = KernelBuilder::new("ill_shaped_write");
    let y = b.output("Y");
    let offsets = b.arange(4);
    let v = b.arange(value);
    let mask = mask.map(|n| {
        let lanes = b.arange(n);
        let cap = b.constant(8.0);
        b.binary(BinOp::Lt, lanes, cap)
    });
    if atomic {
        b.atomic_add(y, offsets, v, mask);
    } else {
        b.store(y, offsets, v, mask);
    }
    let kernel = b.build();
    kernel.validate().expect("structurally valid");
    let mut out = Tensor::zeros(vec![8]);
    launch(
        &kernel,
        &[1],
        &mut [&mut out],
        &DeviceModel::rtx3090(),
        Mode::Execute,
    )
    .map(|_| ())
}

#[test]
fn store_of_a_value_that_does_not_fit_its_offsets_is_rejected() {
    assert_rejected(written(false, 3, None));
}

#[test]
fn store_under_a_mask_that_does_not_fit_its_offsets_is_rejected() {
    assert_rejected(written(false, 4, Some(3)));
}

#[test]
fn atomic_add_of_a_value_that_does_not_fit_its_offsets_is_rejected() {
    assert_rejected(written(true, 3, None));
}

#[test]
fn atomic_add_under_a_mask_that_does_not_fit_its_offsets_is_rejected() {
    assert_rejected(written(true, 4, Some(3)));
}

#[test]
fn writes_whose_shapes_broadcast_still_launch() {
    written(false, 1, Some(4)).expect("a one-lane value broadcasts");
    written(true, 4, Some(1)).expect("a one-lane mask broadcasts");
}

/// `kernel` on `[1]` over `args`: refused with a `GpuError::Kernel` in
/// Execute mode, while the seed interpreter runs it.
fn assert_refused_but_seed_runs(kernel: &Kernel, args: &[Tensor]) {
    let device = DeviceModel::rtx3090();
    let mut ours = args.to_vec();
    let mut refs: Vec<&mut Tensor> = ours.iter_mut().collect();
    assert_rejected(launch(kernel, &[1], &mut refs, &device, Mode::Execute).map(|_| ()));
    let mut seed = args.to_vec();
    let mut refs: Vec<&mut Tensor> = seed.iter_mut().collect();
    launch_reference(kernel, &[1], &mut refs, &device, Mode::Execute)
        .expect("the seed interpreter runs it");
}

/// `Y[i] += 1; Z[i] = X[Y[i]]`: the offset of the `X` load is loaded from
/// `Y`, which the kernel writes. The machine would read `Y` before the
/// tape's writes to it, so `Program::compile` refuses the kernel.
#[test]
fn an_offset_loaded_from_a_written_parameter_is_refused() {
    let mut b = KernelBuilder::new("offset_from_written");
    let x = b.input("X");
    let y = b.output("Y");
    let z = b.output("Z");
    let lanes = b.arange(4);
    let one = b.full(vec![4], 1.0);
    b.atomic_add(y, lanes, one, None);
    let at = b.load(y, lanes, None, 0.0);
    let v = b.load(x, at, None, 0.0);
    b.store(z, lanes, v, None);
    let args = [
        Tensor::from_fn(vec![8], |i| i[0] as f32),
        Tensor::from_fn(vec![4], |i| i[0] as f32),
        Tensor::zeros(vec![4]),
    ];
    assert_refused_but_seed_runs(&b.build(), &args);
}

/// A view read after the tile under it was rewritten: `v = trans(x)`,
/// then `x += x` in place, then `v` stored. The tape keeps views as
/// strides over their source's slot, so `v` has no static place, and the
/// first Execute launch refuses the kernel.
#[test]
fn a_view_read_after_its_source_was_rewritten_is_refused() {
    let mut b = KernelBuilder::new("stale_view");
    let x = b.input("X");
    let y = b.output("Y");
    let lanes = b.arange(16);
    let flat = b.load(x, lanes, None, 0.0);
    let tile = b.view(flat, vec![4, 4]);
    let v = b.trans(tile);
    b.binary_into(flat, BinOp::Add, flat, flat);
    let out = b.view(v, vec![16]);
    b.store(y, lanes, out, None);
    let args = [
        Tensor::from_fn(vec![16], |i| i[0] as f32),
        Tensor::zeros(vec![16]),
    ];
    assert_refused_but_seed_runs(&b.build(), &args);
}

/// A `tl.dot` whose result is an offset: the machine computes no dot, so
/// `Program::compile` refuses the kernel.
#[test]
fn a_dot_that_reaches_an_offset_is_refused() {
    let mut b = KernelBuilder::new("dot_offset");
    let y = b.output("Y");
    let a = b.full(vec![1, 2], 1.0);
    let c = b.full(vec![2, 1], 1.0);
    let d = b.dot(a, c);
    let at = b.view(d, vec![1]);
    let one = b.full(vec![1], 1.0);
    b.store(y, at, one, None);
    assert_refused_but_seed_runs(&b.build(), &[Tensor::zeros(vec![4])]);
}
