//! DoE execution-engine performance: the same seeded experiment dispatched
//! through the work-stealing pool at width 1 vs width 4, plus the pool's raw
//! dispatch overhead on trivial jobs. On a single-core runner the widths
//! tie (the engine adds no measurable overhead); on a multi-core runner the
//! width-4 leg shows the wall-clock win while producing byte-identical
//! tables.

use ffet_bench::BenchGroup;
use ffet_core::experiments::{self, DesignKind};
use ffet_core::runner::Pool;
use ffet_core::RunEnv;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut group = BenchGroup::new("doe_runner");
    group.sample_size(5);

    // Only the pool width varies; the router stays serial in both legs.
    let serial = RunEnv::new(DesignKind::CounterSmall);
    let wide = RunEnv {
        jobs: 4,
        ..serial.clone()
    };
    group.bench_function("fig9_counter_jobs1", || experiments::fig9(&serial));
    group.bench_function("fig9_counter_jobs4", || experiments::fig9(&wide));

    // Raw engine overhead: 256 no-op jobs through the injector + stealing
    // machinery. This bounds the fixed cost a sweep point pays for being
    // scheduled rather than called directly.
    group.bench_function("dispatch_256_noop_jobs1", || {
        Pool::new(1).run((0..256usize).collect(), |&i| Ok::<usize, String>(i))
    });
    group.bench_function("dispatch_256_noop_jobs4", || {
        Pool::new(4).run((0..256usize).collect(), |&i| Ok::<usize, String>(i))
    });
    let legs = group.finish();
    ffet_bench::append_bench_ledger("doe_runner", legs, t0.elapsed());
}
