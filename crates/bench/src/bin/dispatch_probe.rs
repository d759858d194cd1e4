//! Determinism probe for the flat-dispatch refactor: runs the simulated
//! runner for every registered method and prints an FNV-1a fingerprint of
//! the full measurement stream (configs, levels, values, costs, virtual
//! timestamps — everything the scheduler decided).
//!
//! Used as a before/after harness when refactoring dispatch internals:
//! run it on the old tree and the new tree and diff the output. The sim
//! runner drives methods through `next_jobs(ctx, 1)`, so equal
//! fingerprints pin the k ≤ 1 path bit-identical across the refactor for
//! all registry methods.
//!
//! The expected output is checked in as `crates/bench/golden/dispatch_probe.txt`,
//! and `scripts/ci.sh` diffs a fresh run against it.

use hypertune::prelude::*;

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

fn fingerprint(r: &hypertune::core::RunResult, space: &ConfigSpace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in &r.measurements {
        for x in space.encode(&m.config) {
            fnv(&mut h, x.to_bits());
        }
        fnv(&mut h, m.level as u64);
        fnv(&mut h, m.value.to_bits());
        fnv(&mut h, m.cost.to_bits());
        fnv(&mut h, m.finished_at.to_bits());
    }
    fnv(&mut h, r.best_value.to_bits());
    fnv(&mut h, r.total_evals as u64);
    h
}

fn main() {
    for &kind in MethodKind::all() {
        for seed in [3u64, 17] {
            // Float-heavy space: model-based samplers actually fit their
            // surrogates and run acquisition, exercising the batch pool.
            let bench = tasks::xgboost_covertype(seed);
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut method = kind.build(&levels, seed);
            let mut config = RunConfig::new(8, 3.0 * 3600.0, seed);
            config.max_evals = 120;
            let r = run(method.as_mut(), &bench, &config);
            println!(
                "{:<28} seed={:<3} fp={:016x} best={:+.6e} evals={}",
                kind.name(),
                seed,
                fingerprint(&r, bench.space()),
                r.best_value,
                r.total_evals
            );
        }
    }
}
