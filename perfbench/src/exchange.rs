//! `exchange_batch`: the paper's own end-to-end measure. Each round
//! populates the Fig 12 scenarios a–d at about [`SOURCE_TUPLES`] source
//! tuples each (the set-up), then exchanges each with
//! `SedexEngine::exchange` at engine threads = 1 and reads the result back
//! as SQL. Tree building and script execution do nearly all the work; no
//! service layer is involved.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use sedex_core::{
    ExchangeReport, MetricsRegistry, Phase, RegistryObserver, SedexConfig, SedexEngine,
};
use sedex_scenarios::compose::abcd_scenarios;
use sedex_scenarios::Scenario;
use sedex_service::{sql_dump, sql_dump_snapshot};
use sedex_storage::{Instance, Value};

use crate::common::{self, median, ms, percentile, Args, Figures, Outcome};
use crate::probes;

/// Source tuples per scenario (split evenly over its relations).
pub const SOURCE_TUPLES: usize = 100_000;

struct Round {
    setup_s: f64,
    /// [`common::calibrate_s`] around the set-up (mean of before and after).
    setup_calibration_s: f64,
    populate_ms: Vec<f64>,
    exchange_s: f64,
    read_s: f64,
    tuples: usize,
    reports: Vec<(ExchangeReport, f64)>,
    /// Per exchange, [`common::calibrate_s`] around it (mean of before and
    /// after).
    calibration_s: Vec<f64>,
    heap_bytes_per_tuple: f64,
    a_target: Option<Instance>,
}

pub fn run(args: &Args) -> Outcome {
    let scenarios = abcd_scenarios();
    let mut digests: HashMap<String, u64> = HashMap::new();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (plain, traced) = common::run_rounds(
        args,
        |traced| {
            round(
                &scenarios,
                args.seed,
                traced,
                &mut digests,
                &mut errors,
                &mut attempted,
                &mut failed,
            )
        },
        |r| {
            format!(
                "setup {:.3}s, exchange {:.3}s ({:.0} tuples/s), read {:.3}s, calibration {:.1}ms",
                r.setup_s,
                r.exchange_s,
                r.tuples as f64 / r.exchange_s,
                r.read_s,
                common::mean(&r.calibration_s) * 1e3
            )
        },
    );
    let mut m = Figures::new();
    end_to_end(&plain, &mut m);
    if args.trace {
        errors.extend(layers(&traced, args.seed, &mut m));
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: m,
    }
}

fn round(
    scenarios: &[Scenario],
    seed: u64,
    traced: bool,
    digests: &mut HashMap<String, u64>,
    errors: &mut Vec<String>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Round {
    let heap_before = crate::live_heap_bytes();
    let mut populate_ms = Vec::new();
    let before = common::calibrate_s();
    let t = Instant::now();
    let sources: Vec<Instance> = scenarios
        .iter()
        .map(|s| {
            let t = Instant::now();
            let per_rel = (SOURCE_TUPLES / s.source.len()).max(1);
            let inst = s.populate(per_rel, seed).expect("populate");
            populate_ms.push(ms(t.elapsed()));
            inst
        })
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    let setup_calibration_s = (before + common::calibrate_s()) / 2.0;
    let tuples: usize = sources.iter().map(Instance::total_tuples).sum();
    let heap_bytes_per_tuple = (crate::live_heap_bytes() - heap_before) as f64 / tuples as f64;

    let registry = MetricsRegistry::new();
    let mut engine = SedexEngine::with_config(SedexConfig {
        threads: 1,
        ..SedexConfig::default()
    });
    if traced {
        engine = engine.with_observer(Arc::new(RegistryObserver::new(&registry)));
    }
    let (mut exchange_s, mut read_s) = (0.0, 0.0);
    let mut reports = Vec::new();
    let mut calibration_s = Vec::new();
    let mut a_target = None;
    for (s, src) in scenarios.iter().zip(&sources) {
        *attempted += 1;
        let before = common::calibrate_s();
        let t = Instant::now();
        let result = engine.exchange(src, &s.target, &s.sigma);
        let wall = t.elapsed().as_secs_f64();
        let calibration = (before + common::calibrate_s()) / 2.0;
        let (out, report) = match result {
            Ok(x) => x,
            Err(e) => {
                *failed += 1;
                errors.push(format!("scenario {}: exchange failed: {e}", s.name));
                continue;
            }
        };
        exchange_s += wall;
        // Reading the result back is what a user of the exchange does next.
        let t = Instant::now();
        let dump = sql_dump(&out);
        read_s += t.elapsed().as_secs_f64();
        check(s, src, &out, &report, &dump, digests, errors);
        reports.push((report, wall));
        calibration_s.push(calibration);
        // Kept only where the traced run's storage probes need it, so
        // the rounds of a run hold the same memory.
        if traced && s.name == "a" {
            a_target = Some(out);
        }
    }
    Round {
        setup_s,
        setup_calibration_s,
        populate_ms,
        exchange_s,
        read_s,
        tuples,
        reports,
        calibration_s,
        heap_bytes_per_tuple,
        a_target,
    }
}

/// The output checks: target keys hold, every source tuple is accounted
/// for, and every round of a scenario yields the same output.
fn check(
    s: &Scenario,
    src: &Instance,
    out: &Instance,
    report: &ExchangeReport,
    dump: &str,
    digests: &mut HashMap<String, u64>,
    errors: &mut Vec<String>,
) {
    for (name, rel) in out.relations() {
        let key = &rel.schema().primary_key;
        if key.is_empty() {
            continue;
        }
        let mut keys: HashSet<Vec<&Value>> = HashSet::with_capacity(rel.len());
        for t in rel.iter() {
            let k: Vec<&Value> = key.iter().map(|&i| &t.values()[i]).collect();
            if !keys.insert(k) {
                errors.push(format!("scenario {}: key of {name} violated", s.name));
                break;
            }
        }
    }
    let accounted = report.tuples_processed + report.tuples_skipped_seen;
    if accounted != src.total_tuples() {
        errors.push(format!(
            "scenario {}: {} processed + {} skipped-seen != {} source tuples",
            s.name,
            report.tuples_processed,
            report.tuples_skipped_seen,
            src.total_tuples()
        ));
    }
    if out.total_tuples() == 0 {
        errors.push(format!("scenario {}: empty target", s.name));
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dump.hash(&mut h);
    let digest = h.finish();
    match digests.get(&s.name) {
        Some(&d) if d != digest => errors.push(format!(
            "scenario {}: output differs between rounds",
            s.name
        )),
        Some(_) => {}
        None => {
            digests.insert(s.name.clone(), digest);
        }
    }
}

/// The time to exchange a–d at the reference host's speed, in seconds: each
/// exchange's wall time scaled by its calibration, the median over the
/// run's exchanges of each scenario, summed over the scenarios.
fn scaled_exchange_s(rounds: &[Round]) -> f64 {
    let scenarios = rounds.iter().map(|r| r.reports.len()).min().unwrap_or(0);
    (0..scenarios)
        .map(|i| {
            let scaled: Vec<f64> = rounds
                .iter()
                .map(|r| common::at_reference_speed(r.reports[i].1, r.calibration_s[i]))
                .collect();
            median(&scaled)
        })
        .sum()
}

fn end_to_end(rounds: &[Round], m: &mut Figures) {
    let setup: Vec<f64> = rounds
        .iter()
        .map(|r| common::at_reference_speed(r.setup_s, r.setup_calibration_s))
        .collect();
    let exchange: Vec<f64> = rounds.iter().map(|r| r.exchange_s * 1e6).collect();
    let read: Vec<f64> = rounds.iter().map(|r| r.read_s * 1e6).collect();
    let scaled = scaled_exchange_s(rounds);
    let calibration: Vec<f64> = rounds.iter().flat_map(|r| r.calibration_s.clone()).collect();
    m.insert("setup_s", median(&setup));
    m.insert("tuples_per_s", rounds[0].tuples as f64 / scaled);
    m.insert("latency_us", scaled * 1e6);
    m.insert("host.calibration_ms", median(&calibration) * 1e3);
    m.insert("read.p50_us", median(&read));
    m.insert("peak_rss_mb", common::peak_rss_mb());
    m.insert("tail.p99_us", percentile(&exchange, 99.0));
    m.insert("tail.read_p99_us", percentile(&read, 99.0));
}

/// The per-layer figures; returns the failed output checks of the probes.
fn layers(traced: &[Round], seed: u64, m: &mut Figures) -> Vec<String> {
    let mut t = Figures::new();
    end_to_end(traced, &mut t);
    common::trace_overhead(m, &t);

    // Engine phases per exchange, averaged over the traced exchanges; the
    // phases that run only on a repository miss per generated script.
    let reports: Vec<&(ExchangeReport, f64)> = traced.iter().flat_map(|r| &r.reports).collect();
    let n = reports.len() as f64;
    let per = |f: &dyn Fn(&ExchangeReport, f64) -> f64| -> f64 {
        reports.iter().map(|(r, w)| f(r, *w)).sum::<f64>() / n
    };
    let misses = per(&|r, _| r.scripts_generated as f64);
    for (name, phase, per_miss) in [
        ("engine.tree_build_ms", Phase::TreeBuild, false),
        ("engine.match_ms", Phase::Match, true),
        ("engine.translate_ms", Phase::Translate, true),
        ("engine.scriptgen_ms", Phase::ScriptGen, true),
        ("engine.script_run_ms", Phase::ScriptRun, false),
    ] {
        let v = per(&|r, _| ms(r.phases.get(phase)));
        m.insert(name, if per_miss { v / misses } else { v });
    }
    let tg = per(&|r, _| ms(r.tg));
    let te = per(&|r, _| ms(r.te));
    let wall = per(&|_, w| w * 1e3);
    m.insert("engine.tg_ms", tg);
    m.insert("engine.te_ms", te);
    m.insert("engine.outside_ms", wall - tg - te);
    let generated: usize = traced[0]
        .reports
        .iter()
        .map(|(r, _)| r.scripts_generated)
        .sum();
    let reused: usize = traced[0]
        .reports
        .iter()
        .map(|(r, _)| r.scripts_reused)
        .sum();
    m.insert("engine.scripts_generated", generated as f64);
    m.insert(
        "engine.reuse_ratio",
        reused as f64 / (generated + reused) as f64,
    );
    let phases = m["engine.tree_build_ms"]
        + (m["engine.match_ms"] + m["engine.translate_ms"] + m["engine.scriptgen_ms"]) * misses;
    eprintln!(
        "parts of one exchange (mean of {} traced exchanges):",
        reports.len()
    );
    eprintln!("  wall                                 {wall:>10.3} ms");
    eprintln!("  = Tg                                 {tg:>10.3} ms");
    eprintln!("      tree_build+match+translate+scriptgen {phases:>10.3} ms");
    eprintln!(
        "      unattributed in Tg               {:>10.3} ms",
        tg - phases
    );
    eprintln!("  + Te                                 {te:>10.3} ms");
    eprintln!(
        "      script_run                       {:>10.3} ms",
        m["engine.script_run_ms"]
    );
    eprintln!(
        "      unattributed in Te               {:>10.3} ms",
        te - m["engine.script_run_ms"]
    );
    eprintln!(
        "  + outside Tg+Te (unattributed)       {:>10.3} ms",
        wall - tg - te
    );

    let populate: Vec<f64> = traced.iter().flat_map(|r| r.populate_ms.clone()).collect();
    m.insert("scenarios.populate_ms", median(&populate));
    m.insert(
        "storage.heap_bytes_per_tuple",
        traced[0].heap_bytes_per_tuple,
    );

    // Storage and read paths on the exchanged target of scenario a.
    let target = traced
        .iter()
        .find_map(|r| r.a_target.as_ref())
        .expect("scenario a exchanged");
    m.insert(
        "storage.stats_us",
        common::time_median_us(21, || {
            std::hint::black_box(target.stats());
        }),
    );
    m.insert(
        "storage.snapshot_us",
        common::time_median_us(21, || {
            std::hint::black_box(target.snapshot());
        }),
    );
    let snap = target.snapshot();
    m.insert(
        "read.sql_render_ms",
        common::time_median_us(5, || {
            std::hint::black_box(sql_dump_snapshot(&snap));
        }) / 1e3,
    );
    m.insert(
        "read.snapshot_stats_us",
        common::time_median_us(21, || {
            std::hint::black_box(snap.stats());
        }),
    );

    // Layers this workload never reaches: fixed-size probes.
    probes::session_layers(probes::PROBE_SESSION_TUPLES, false, seed, m);
    let mut errors = probes::server_layers(seed, m);
    errors.extend(probes::durable_layers(seed, m));
    errors
}
