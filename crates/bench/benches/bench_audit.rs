//! End-to-end audit cost: locating one proxy (tunnel establishment,
//! two-phase measurement, CBG++, assessment) on a prebuilt small world.
//!
//! Two variants: the bare pipeline (comparable with the committed
//! baseline in `bench_output/`), and the same pipeline with an
//! `obs::Recorder` at the audit's default `Events` level installed —
//! the observability layer's overhead budget is <2 % between them.

use bench::{build_study_context, Scale};
use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use geoloc::algorithms::CbgPlusPlus;
use geoloc::assess::assess_claim;
use geoloc::proxy::ProxyContext;
use geoloc::twophase::{run_two_phase, ProxyProber};
use geoloc::Geolocator;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::hint::black_box;

fn bench_single_proxy(c: &mut Criterion) {
    let mut ctx = build_study_context(Scale::Small);
    let proxy = ctx.study.providers.proxies[0].clone();
    let client = ctx.study.client;
    let atlas = std::sync::Arc::clone(ctx.study.world.atlas());
    let mask = ctx.study.mask.clone();

    // Group name "audit" keys the machine-readable artifact
    // (bench_output/BENCH_audit.json).
    let mut group = c.benchmark_group("audit");
    group.sample_size(20);
    group.bench_function("one proxy: tunnel + two-phase + CBG++ + assess", |b| {
        b.iter(|| {
            let server = atlas::LandmarkServer::new(
                &ctx.study.constellation,
                &ctx.study.calibration,
                &atlas,
            );
            let proxy_ctx = ProxyContext::establish(
                ctx.study.world.network_mut(),
                client,
                proxy.node,
                0.5,
                4,
            )
            .expect("tunnel up");
            let mut prober = ProxyProber::new(proxy_ctx, 2);
            let mut rng = StdRng::seed_from_u64(7);
            let two_phase =
                run_two_phase(ctx.study.world.network_mut(), &server, &mut prober, &mut rng)
                    .expect("measured");
            let prediction = CbgPlusPlus.locate(&two_phase.observations, &mask);
            black_box(assess_claim(&atlas, &prediction.region, proxy.claimed))
        })
    });

    // Same pipeline, recorder on at the audit's default level: netsim
    // probe events, twophase transitions, and CBG++ stage events all
    // recorded.
    let recorder = obs::Recorder::new(obs::Level::Events);
    ctx.study.world.network_mut().set_recorder(recorder.clone());
    group.bench_function("same, with Events recorder", |b| {
        b.iter(|| {
            let server = atlas::LandmarkServer::new(
                &ctx.study.constellation,
                &ctx.study.calibration,
                &atlas,
            );
            let proxy_ctx = ProxyContext::establish(
                ctx.study.world.network_mut(),
                client,
                proxy.node,
                0.5,
                4,
            )
            .expect("tunnel up");
            let mut prober = ProxyProber::new(proxy_ctx, 2);
            let mut rng = StdRng::seed_from_u64(7);
            let two_phase =
                run_two_phase(ctx.study.world.network_mut(), &server, &mut prober, &mut rng)
                    .expect("measured");
            let prediction =
                CbgPlusPlus.locate_traced(&two_phase.observations, &mask, &recorder);
            black_box(assess_claim(&atlas, &prediction.region, proxy.claimed))
        })
    });
    ctx.study.world.network_mut().set_recorder(obs::Recorder::off());
    // Counters accumulated across both variants land in the artifact.
    group.capture_recorder(&recorder);
    group.finish();
}

criterion_group!(benches, bench_single_proxy);
criterion_main!(benches);
