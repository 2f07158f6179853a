//! CBG++ subset-search scaling: the fast path (consistent disks) vs the
//! counting sweep (an inconsistent disk forces the per-cell popcount).

use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use geokit::{GeoGrid, GeoPoint, Region};
use geoloc::multilateration::{max_consistent_subset, FastPath, RingConstraint};
use std::hint::black_box;

fn consistent(n: usize) -> Vec<RingConstraint> {
    let target = GeoPoint::new(48.0, 11.0);
    (0..n)
        .map(|i| {
            let lm = target.destination(360.0 * i as f64 / n as f64, 900.0);
            RingConstraint::disk(lm, 1100.0)
        })
        .collect()
}

fn with_conflict(n: usize) -> Vec<RingConstraint> {
    let mut cs = consistent(n - 1);
    // One disk on the other side of the planet: forces the slow path.
    cs.push(RingConstraint::disk(GeoPoint::new(-30.0, -150.0), 400.0));
    cs
}

fn bench_subset(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_consistent_subset");
    group.sample_size(20);
    let off = obs::Recorder::off();
    for res in [2.0, 1.0] {
        let mask = Region::full(GeoGrid::new(res));
        for n in [10usize, 25] {
            let fast = consistent(n);
            group.bench_function(format!("fast path {res}deg x{n}"), |b| {
                b.iter(|| {
                    max_consistent_subset(
                        black_box(&fast),
                        black_box(&mask),
                        FastPath::Snapped,
                        &off,
                    )
                })
            });
            let slow = with_conflict(n);
            group.bench_function(format!("counting sweep {res}deg x{n}"), |b| {
                b.iter(|| {
                    max_consistent_subset(
                        black_box(&slow),
                        black_box(&mask),
                        FastPath::Snapped,
                        &off,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_subset);
criterion_main!(benches);
