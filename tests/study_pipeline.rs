//! End-to-end integration test of the §6 audit pipeline: build a small
//! study once, then check every cross-crate invariant against it.

use proxy_verifier::vpnstudy::confusion::{continent_confusion, country_confusion};
use proxy_verifier::vpnstudy::report;
use proxy_verifier::vpnstudy::{Study, StudyConfig};
use proxy_verifier::Assessment;
use std::sync::OnceLock;

/// The shared study, built once and only read.
fn study() -> &'static (Study, proxy_verifier::vpnstudy::audit::StudyResults) {
    static S: OnceLock<(Study, proxy_verifier::vpnstudy::audit::StudyResults)> = OnceLock::new();
    S.get_or_init(|| {
        let mut study = Study::build(StudyConfig::small(2018));
        let results = study.run();
        (study, results)
    })
}

#[test]
fn every_proxy_gets_a_verdict() {
    let (s, r) = study();
    assert_eq!(r.records.len() + r.unmeasured, s.providers.proxies.len());
    assert!(r.unmeasured <= s.providers.proxies.len() / 10);
}

#[test]
fn eta_estimate_matches_the_tunnel_geometry() {
    let (_, r) = study();
    let eta = r.eta.expect("pingable proxies exist");
    assert!((eta.eta() - 0.5).abs() < 0.05, "η = {}", eta.eta());
    assert!(eta.r_squared > 0.98, "R² = {}", eta.r_squared);
}

#[test]
fn study_catches_a_majority_of_lies() {
    // Evaluation against ground truth: among proxies whose claim is
    // actually false, the pipeline should flag well over half as false
    // or at least fail to rate them credible.
    let (_, r) = study();
    let mut caught = 0usize;
    let mut wrongly_credible = 0usize;
    let mut lies = 0usize;
    for rec in &r.records {
        if rec.proxy.claimed != rec.proxy.true_country {
            lies += 1;
            match rec.refined.assessment {
                Assessment::False => caught += 1,
                Assessment::Credible => wrongly_credible += 1,
                Assessment::Uncertain | Assessment::Suspicious => {}
            }
        }
    }
    assert!(lies > 10, "study too small to judge ({lies} lies)");
    assert!(
        caught * 2 >= lies,
        "caught only {caught} of {lies} lying proxies"
    );
    assert!(
        wrongly_credible * 10 <= lies,
        "{wrongly_credible} of {lies} lies rated credible"
    );
}

#[test]
fn honest_proxies_are_rarely_called_false() {
    let (_, r) = study();
    let mut honest = 0usize;
    let mut wrongly_false = 0usize;
    for rec in &r.records {
        if rec.proxy.claimed == rec.proxy.true_country {
            honest += 1;
            if rec.refined.assessment == Assessment::False {
                wrongly_false += 1;
            }
        }
    }
    assert!(honest > 10);
    assert!(
        wrongly_false * 5 <= honest,
        "{wrongly_false} of {honest} honest proxies wrongly condemned"
    );
}

#[test]
fn confusion_matrices_are_symmetric_with_dominant_diagonals() {
    let (s, r) = study();
    for matrix in [
        continent_confusion(s.world.atlas(), r),
        country_confusion(s.world.atlas(), r),
    ] {
        let n = matrix.n();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(matrix.at(i, j), matrix.at(j, i), "asymmetry at {i},{j}");
                assert!(
                    matrix.at(i, j) <= matrix.at(i, i).min(matrix.at(j, j)),
                    "off-diagonal exceeds diagonal at {i},{j}"
                );
            }
        }
    }
}

#[test]
fn continent_confusion_shows_neighbour_structure() {
    // Europe–Africa overlap should exist (the paper's Fig. 22 shows it);
    // Europe–Australia overlap should be absent or tiny.
    let (s, r) = study();
    let m = continent_confusion(s.world.atlas(), r);
    use proxy_verifier::Continent;
    let eu = Continent::Europe.index();
    let au = Continent::Australia.index();
    assert!(
        m.at(eu, au) <= m.at(eu, eu) / 5,
        "Europe/Australia confusion {} vs Europe diagonal {}",
        m.at(eu, au),
        m.at(eu, eu)
    );
}

#[test]
fn reports_render_nonempty() {
    let (s, r) = study();
    let overall = report::render_overall(s, r);
    assert!(overall.contains("assessment"));
    let fig21 = report::render_fig21(s, r);
    assert!(fig21.contains("CBG++ (strict)"));
    assert!(fig21.contains("MaxMind"));
    let honesty = report::render_provider_country_honesty(s, r, 10);
    assert!(honesty.lines().count() >= 8, "7 providers + header");
}

#[test]
fn ip_databases_agree_with_claims_more_than_cbgpp_strict() {
    // Fig. 21's key relationship: every IP-to-location database is more
    // provider-friendly than strict active geolocation.
    let (s, r) = study();
    for provider in 0..s.providers.profiles.len() {
        let strict = r.cbgpp_agreement(provider, false);
        for db in proxy_verifier::vpnstudy::ipdb::paper_databases() {
            let (mut agree, mut total) = (0usize, 0usize);
            for rec in &r.records {
                if rec.proxy.provider == provider {
                    total += 1;
                    if db.agrees_with_claim(&rec.proxy) {
                        agree += 1;
                    }
                }
            }
            if total < 5 {
                continue;
            }
            let db_rate = agree as f64 / total as f64;
            assert!(
                db_rate >= strict - 0.05,
                "{} less provider-friendly than CBG++ strict for provider {provider}",
                db.name
            );
        }
    }
}

#[test]
fn iclab_is_no_more_generous_than_cbgpp_generous() {
    // ICLab only *rejects* impossible claims, so it should sit between
    // CBG++ strict and the IP databases, usually near CBG++.
    let (s, r) = study();
    let mut iclab_total = 0.0;
    let mut generous_total = 0.0;
    for provider in 0..s.providers.profiles.len() {
        iclab_total += r.iclab_agreement(provider);
        generous_total += r.cbgpp_agreement(provider, true);
    }
    // Averaged across providers the two track each other loosely.
    assert!(
        (iclab_total - generous_total).abs() < 2.0,
        "iclab {iclab_total} vs generous {generous_total}"
    );
}
