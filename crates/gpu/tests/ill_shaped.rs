//! Kernels that pass `Kernel::validate` but apply a shape rule to blocks
//! it does not fit. Block shapes are a function of the kernel text, so
//! `Program::compile` proves each of these illegal and `launch` returns
//! `GpuError::Kernel` instead of reaching the interpreter.

use insum_gpu::{launch, DeviceModel, GpuError, Mode};
use insum_kernel::{BinOp, KernelBuilder, Reg};
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
