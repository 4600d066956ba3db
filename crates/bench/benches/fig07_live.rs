//! Criterion benchmark for the Figure 7 experiment (live-instruction
//! distribution). Prints the reduced-trace report once, then times the
//! instrumented 2048-entry baseline run.

use criterion::{criterion_group, criterion_main, Criterion};
use koc_bench::{experiments::fig07_live, BENCH_TRACE_LEN};
use koc_sim::{Processor, ProcessorConfig, WindowStats};
use koc_workloads::{kernels, Workload};

fn bench_fig07(c: &mut Criterion) {
    let report = fig07_live::run(BENCH_TRACE_LEN);
    eprintln!("{report}");

    let w = Workload::generate("stencil27", kernels::stencil27(), BENCH_TRACE_LEN);
    let mut group = c.benchmark_group("fig07_live");
    group.sample_size(10);
    group.bench_function("baseline_2048_lat500", |b| {
        b.iter(|| {
            Processor::with_observer(
                ProcessorConfig::baseline(2048, 500),
                &w.trace,
                WindowStats::new(),
            )
            .run_observed()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig07);
criterion_main!(benches);
