//! Micro-benchmark: the convolution inference path host batches run
//! (`Layer::infer` on a reused `Workspace`: the channel-lane kernel, or
//! im2col + GEMM where that tier or geometry sends it) at Model A's
//! layer geometries, and the im2col lowering on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mp_nn::layers::Conv2d;
use mp_nn::Layer;
use mp_tensor::init::TensorRng;
use mp_tensor::{Shape, Tensor, Workspace};

fn bench_conv_infer(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(0);
    let mut group = c.benchmark_group("conv2d_infer");
    // (in_ch, out_ch, k, size): Model A's three conv stages.
    for (ic, oc, k, size) in [
        (3usize, 32usize, 5usize, 32usize),
        (32, 32, 5, 15),
        (32, 64, 5, 7),
    ] {
        let conv = Conv2d::new(ic, oc, k, 1, 2, &mut rng).unwrap();
        let x = rng.normal(Shape::nchw(1, ic, size, size), 0.0, 1.0);
        let mut ws = Workspace::new();
        group.bench_function(format!("{ic}->{oc}@{size}x{size}"), |b| {
            b.iter(|| {
                let y = conv.infer(black_box(&x), &mut ws).unwrap();
                ws.put(y.into_vec());
            })
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    use mp_tensor::conv::{im2col, ConvGeometry};
    let img = Tensor::from_fn(Shape::nchw(1, 64, 30, 30), |i| i as f32 * 1e-3);
    c.bench_function("im2col_64ch_30x30_3x3", |b| {
        b.iter(|| im2col(black_box(&img), ConvGeometry::new(3, 1, 0)).unwrap())
    });
}

criterion_group!(benches, bench_conv_infer, bench_im2col);
criterion_main!(benches);
