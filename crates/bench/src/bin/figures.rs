//! Regenerate the data behind every table and figure in the paper.
//!
//! ```text
//! figures <id>... [--scale small|medium|paper] [--out DIR]
//! figures --all   [--scale ...] [--out DIR]
//! figures --list
//! ```
//!
//! Each figure's regenerated data is printed to stdout (and, with
//! `--out`, written to `DIR/<id>.txt`). See EXPERIMENTS.md for the
//! paper-vs-measured comparison these outputs feed.

use bench::figures;
use bench::{build_crowd_context, build_study_context, CrowdContext, Scale, StudyContext};
use std::io::Write as _;

const FIGURES: &[(&str, &str)] = &[
    ("fig2", "calibration scatter + CBG/Octant/Spotter fits"),
    ("fig3", "landmark + crowd maps (also Fig. 8; Fig. 1 = examples/quickstart)"),
    ("fig4", "CLI vs Web tool, Linux"),
    ("fig5", "Web tool under Windows (+ Fig. 6 high outliers)"),
    ("fig7", "tool semantics: 1 vs 2 round trips"),
    ("fig9", "algorithm comparison CDFs on crowd hosts"),
    ("fig10", "bestline/baseline estimate-to-truth ratios"),
    ("fig11", "measurement effectiveness vs landmark distance"),
    ("fig13", "direct vs indirect RTT (eta)"),
    ("fig14", "VPN market claim survey"),
    ("fig16", "co-location group case study"),
    ("fig17", "overall claim assessment"),
    ("fig18", "honesty over top claimed countries"),
    ("fig19", "per-provider country honesty (wide)"),
    ("fig20", "region size vs nearest landmark"),
    ("fig21", "method agreement comparison"),
    ("fig22", "continent confusion matrix"),
    ("fig23", "country confusion matrix"),
    ("headline", "the paper's headline numbers"),
    ("ablation", "CBG++ design-choice ablations (not a paper figure)"),
    ("faults", "fault sweep: verdicts under loss + outages (not a paper figure)"),
    ("adversary", "adversarial campaign: detection rate vs adversary strength (not a paper figure)"),
    ("trace", "observability trace: probe outcomes, retries, region funnel (not a paper figure)"),
    ("profile", "hierarchical span profile of the audit run, wall-clock (not a paper figure)"),
    ("store", "verdict store: provider trends, country false rates, revalidation queue (not a paper figure)"),
    ("ops", "operational telemetry: SLO dashboard + OpenMetrics/Perfetto sidecars (not a paper figure)"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") || args.is_empty() {
        eprintln!("usage: figures <id>... | --all  [--scale small|medium|paper] [--out DIR]");
        for (id, desc) in FIGURES {
            eprintln!("  {id:<10} {desc}");
        }
        return;
    }

    let scale = match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        Some("medium") | None => Scale::Medium,
        Some(other) => {
            eprintln!("unknown scale {other}");
            std::process::exit(2);
        }
    };
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let all = args.iter().any(|a| a == "--all");
    let wanted: Vec<&str> = if all {
        FIGURES.iter().map(|&(id, _)| id).collect()
    } else {
        args.iter()
            .filter(|a| !a.starts_with("--"))
            .filter(|a| {
                // skip option values
                let s = a.as_str();
                s != "small" && s != "medium" && s != "paper" && out_dir.as_deref() != Some(s)
            })
            .map(String::as_str)
            .collect()
    };
    if wanted.is_empty() {
        eprintln!("no figures requested; try --all or --list");
        std::process::exit(2);
    }
    for id in &wanted {
        if !FIGURES.iter().any(|&(known, _)| known == *id) {
            eprintln!("unknown figure id {id}; try --list");
            std::process::exit(2);
        }
    }

    // Contexts are expensive; build each lazily, once.
    let mut crowd: Option<CrowdContext> = None;
    let mut study: Option<StudyContext> = None;
    fn crowd_ctx(crowd: &mut Option<CrowdContext>, scale: Scale) -> &mut CrowdContext {
        if crowd.is_none() {
            eprintln!("[figures] building crowd context ({scale:?})…");
            *crowd = Some(build_crowd_context(scale));
        }
        crowd.as_mut().unwrap()
    }
    fn study_ctx(study: &mut Option<StudyContext>, scale: Scale) -> &mut StudyContext {
        if study.is_none() {
            eprintln!("[figures] building + running study ({scale:?})…");
            *study = Some(build_study_context(scale));
        }
        study.as_mut().unwrap()
    }

    for id in wanted {
        eprintln!("[figures] {id}…");
        let text = match id {
            "fig2" => figures::fig2_calibration(crowd_ctx(&mut crowd, scale)),
            "fig3" => figures::fig3_fig8_maps(crowd_ctx(&mut crowd, scale)),
            "fig4" => figures::fig4_tools_linux(crowd_ctx(&mut crowd, scale)),
            "fig5" => figures::fig5_fig6_tools_windows(crowd_ctx(&mut crowd, scale)),
            "fig7" => figures::fig7_tool_semantics(crowd_ctx(&mut crowd, scale)),
            "fig9" => figures::fig9_algorithm_comparison(crowd_ctx(&mut crowd, scale)),
            "fig10" => figures::fig10_estimate_ratios(crowd_ctx(&mut crowd, scale)),
            "fig11" => figures::fig11_effectiveness(crowd_ctx(&mut crowd, scale)),
            "fig13" => figures::fig13_eta(study_ctx(&mut study, scale)),
            "fig14" => figures::fig14_market(study_ctx(&mut study, scale)),
            "fig16" => figures::fig16_colocation_group(study_ctx(&mut study, scale)),
            "fig17" => figures::fig17_overall(study_ctx(&mut study, scale)),
            "fig18" => figures::fig18_provider_country(study_ctx(&mut study, scale)),
            "fig19" => figures::fig19_provider_maps(study_ctx(&mut study, scale)),
            "fig20" => figures::fig20_region_size_vs_landmark(study_ctx(&mut study, scale)),
            "fig21" => figures::fig21_method_comparison(study_ctx(&mut study, scale)),
            "fig22" => figures::fig22_continent_confusion(study_ctx(&mut study, scale)),
            "fig23" => figures::fig23_country_confusion(study_ctx(&mut study, scale)),
            "headline" => figures::headline_numbers(study_ctx(&mut study, scale)),
            "ablation" => figures::ablation_cbgpp(crowd_ctx(&mut crowd, scale)),
            "faults" => figures::fault_sweep(scale),
            "adversary" => figures::adversary_campaign(scale),
            "trace" => figures::trace_observability(study_ctx(&mut study, scale)),
            "profile" => figures::profile_spans(study_ctx(&mut study, scale)),
            "store" => figures::verdict_store(study_ctx(&mut study, scale)),
            "ops" => {
                let bundle = figures::ops_telemetry(study_ctx(&mut study, scale));
                // The exposition and trace are machine-readable
                // sidecars, not dashboard text.
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create output dir");
                    for (name, body) in [
                        ("ops.metrics.om", &bundle.metrics),
                        ("ops.trace.json", &bundle.trace),
                    ] {
                        let path = format!("{dir}/{name}");
                        std::fs::write(&path, body).expect("write ops sidecar");
                        eprintln!("[figures] wrote {path}");
                    }
                }
                bundle.dashboard
            }
            _ => unreachable!("validated above"),
        };
        match &out_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create output dir");
                let path = format!("{dir}/{id}.txt");
                std::fs::File::create(&path)
                    .and_then(|mut f| f.write_all(text.as_bytes()))
                    .expect("write figure output");
                eprintln!("[figures] wrote {path}");
            }
            None => {
                println!("==================== {id} ====================");
                println!("{text}");
            }
        }
    }
}
