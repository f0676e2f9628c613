//! Micro-benchmark: a batch through the folded XNOR-popcount hardware
//! model's channel-packed batch path (the functional FPGA path the
//! pipeline runs) on one thread, at the scaled topologies the `Fast`
//! experiments use, next to the float view's per-image inference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_nn::train::Model;
use mp_nn::Mode;
use mp_tensor::init::TensorRng;
use mp_tensor::{Parallelism, Shape};

/// Images per timed batch: one Threaded-executor producer block.
const BATCH: usize = 32;

fn bench_hardware(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(3);
    for (edge, div) in [(8usize, 8usize), (16, 2)] {
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(edge, edge, div), &mut rng).unwrap();
        // Populate batch-norm statistics so the thresholds are realistic.
        for _ in 0..2 {
            let x = rng.normal(Shape::nchw(4, 3, edge, edge), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let batch = rng.normal(Shape::nchw(BATCH, 3, edge, edge), 0.0, 1.0);
        c.bench_function(format!("hw_batch{BATCH}_{edge}px_div{div}"), |b| {
            b.iter(|| {
                hw.infer_batch_with(black_box(&batch), Parallelism::sequential())
                    .unwrap()
            })
        });
        let img = rng.normal(Shape::nchw(1, 3, edge, edge), 0.0, 1.0);
        let mut float_view = bnn;
        c.bench_function(format!("float_infer_{edge}px_div{div}"), |b| {
            b.iter(|| float_view.infer(black_box(&img)).unwrap())
        });
    }
}

criterion_group!(benches, bench_hardware);
criterion_main!(benches);
