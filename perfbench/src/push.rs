//! `push_large` and `push_cfd`: serial closed-loop text `PUSH`es into one
//! session of an in-memory server with default settings.
//!
//! * `push_large` preloads the session by binary `PUSH_BATCH` to
//!   [`LARGE_PRELOAD`] exchanged tuples, so the per-request bookkeeping
//!   (report, publish, reactor round trip) dominates a `PUSH`.
//! * `push_cfd` opens the session with one intra-table `[cfds]` rule on
//!   `Student` and [`CFD_PRELOAD`] students fed through `[data]`; it is the
//!   only workload that reaches `core::cfd`.
//!
//! Every [`READ_EVERY`]th operation on the same connection is a
//! per-session `STATS` (the read metric). Each round starts a fresh server,
//! so every round does the same work from the same state.

use std::time::Instant;

use sedex_service::{Client, ClientConfig, Reply as SReply, Server, ServerConfig, ServerHandle};

use crate::common::{
    self, mean, median, percentile, prom_sum, us, Args, Figures, Outcome, Student, StudentGen,
};
use crate::probes;

pub const LARGE_PRELOAD: usize = 20_000;
pub const LARGE_PUSHES: usize = 500;
pub const CFD_PRELOAD: usize = 4_000;
pub const CFD_PUSHES: usize = 400;
/// Students per `PUSH_BATCH` of the preload.
const PRELOAD_BATCH: usize = 500;
/// One per-session `STATS` after every this many `PUSH`es.
pub const READ_EVERY: usize = 25;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Large,
    Cfd,
}

#[derive(Clone, Copy)]
pub struct Params {
    pub preload: usize,
    pub pushes: usize,
    pub cfd: bool,
}

impl Kind {
    pub fn params(self) -> Params {
        match self {
            Kind::Large => Params {
                preload: LARGE_PRELOAD,
                pushes: LARGE_PUSHES,
                cfd: false,
            },
            Kind::Cfd => Params {
                preload: CFD_PRELOAD,
                pushes: CFD_PUSHES,
                cfd: true,
            },
        }
    }
}

/// One round's measurements.
pub struct Round {
    pub setup_s: f64,
    /// [`common::calibrate_s`] at the start and at the end of the round,
    /// averaged: the host's speed while the round ran.
    pub calibration_s: f64,
    pub push_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Traced rounds only: per-`PUSH` figures scraped from the server.
    pub scraped: Option<ServerSample>,
}

impl Round {
    /// Tuples pushed per second of this round's timed `PUSH`es.
    pub fn tuples_per_s(&self) -> f64 {
        self.push_us.len() as f64 / (self.push_us.iter().sum::<f64>() / 1e6)
    }
}

/// Cumulative counters scraped from `METRICS` and a per-session `STATS`
/// (seconds), for one request verb.
#[derive(Default, Clone)]
pub struct Scraped {
    pub phases_s: [f64; 5],
    pub tg_s: f64,
    pub te_s: f64,
    pub misses: f64,
    pub hits: f64,
    pub stages_s: [f64; 5],
    pub slowest_us: f64,
}

/// A traced round's server-side account: counters moved by its timed
/// requests (`during`), the session's lifetime totals (`total`), and how
/// many timed requests there were.
#[derive(Clone)]
pub struct ServerSample {
    pub during: Scraped,
    pub total: Scraped,
    pub requests: f64,
}

impl Scraped {
    pub fn from_scrape(metrics: &str, stats: &str, verb: &str) -> Scraped {
        let (tg_s, te_s) = common::stats_tg_te(stats);
        let mut s = Scraped {
            tg_s,
            te_s,
            misses: prom_sum(metrics, "sedex_repo_lookup_total", &[("result", "miss")]),
            hits: prom_sum(metrics, "sedex_repo_lookup_total", &[("result", "hit")]),
            ..Scraped::default()
        };
        for (i, ph) in PHASES.iter().enumerate() {
            s.phases_s[i] = prom_sum(metrics, "sedex_phase_seconds_sum", &[("phase", ph)]);
        }
        for (i, st) in STAGES.iter().enumerate() {
            s.stages_s[i] = prom_sum(
                metrics,
                "sedex_stage_seconds_sum",
                &[("stage", st), ("verb", verb)],
            );
        }
        s
    }

    fn minus(&self, b: &Scraped) -> Scraped {
        let mut d = self.clone();
        d.tg_s -= b.tg_s;
        d.te_s -= b.te_s;
        d.misses -= b.misses;
        d.hits -= b.hits;
        for i in 0..5 {
            d.phases_s[i] -= b.phases_s[i];
            d.stages_s[i] -= b.stages_s[i];
        }
        d
    }
}

pub const STAGES: [&str; 5] = ["read", "parse", "queue_wait", "exec", "flush"];
const PHASES: [&str; 5] = [
    "tree_build",
    "match",
    "translate",
    "scriptgen",
    "script_run",
];

pub fn client(handle: &ServerHandle, binary: bool) -> Client {
    Client::connect_with(
        handle.local_addr(),
        ClientConfig {
            binary,
            // A failed request must show as failed, not be resent.
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

/// Server settings: defaults, plus metrics and the flight recorder when
/// the round is traced.
pub fn server_config(traced: bool) -> ServerConfig {
    ServerConfig {
        metrics: traced,
        trace_buffer: if traced { 4096 } else { 0 },
        workers: common::default_workers(),
        ..ServerConfig::default()
    }
}

pub fn round(seed: u64, p: Params, traced: bool) -> Round {
    let calibration_start = common::calibrate_s();
    let t0 = Instant::now();
    let mut gen = StudentGen::new(seed, "", p.cfd);
    let preload = gen.take(p.preload);
    let pushed = gen.take(p.pushes);
    let handle = Server::start(server_config(traced)).expect("server start");
    let mut text = client(&handle, false);
    let session = "bench";
    let mut data = common::dep_lines();
    if p.cfd {
        data.extend(preload.iter().map(Student::line));
    }
    text.open(session, &common::open_body(&data, p.cfd))
        .and_then(SReply::into_ok)
        .expect("OPEN");
    if !p.cfd {
        let mut bin = client(&handle, true);
        for chunk in preload.chunks(PRELOAD_BATCH) {
            let lines: Vec<String> = chunk.iter().map(Student::line).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            bin.push_batch(session, &refs)
                .and_then(SReply::into_ok)
                .expect("preload PUSH_BATCH");
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = traced.then(|| scrape(&mut text, session));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut push_us = Vec::with_capacity(p.pushes);
    let mut read_us = Vec::new();
    for (i, s) in pushed.iter().enumerate() {
        let line = s.line();
        attempted += 1;
        let t = Instant::now();
        let r = text.push(session, &line).and_then(SReply::into_ok);
        push_us.push(us(t.elapsed()));
        if let Err(e) = r {
            failed += 1;
            errors.push(format!("PUSH {line}: {e}"));
        }
        if (i + 1).is_multiple_of(READ_EVERY) {
            attempted += 1;
            let t = Instant::now();
            let r = text.stats(Some(session)).and_then(SReply::into_ok);
            read_us.push(us(t.elapsed()));
            if let Err(e) = r {
                failed += 1;
                errors.push(format!("STATS: {e}"));
            }
        }
    }
    let calibration_s = (calibration_start + common::calibrate_s()) / 2.0;
    let scraped = before.map(|b| {
        let total = scrape(&mut text, session);
        ServerSample {
            during: total.minus(&b),
            total,
            requests: p.pushes as f64,
        }
    });

    // The check: one Stu row per student sent, with the sent values.
    let sent: Vec<&Student> = if p.cfd {
        pushed.iter().collect()
    } else {
        preload.iter().chain(&pushed).collect()
    };
    match text.sql(session).and_then(SReply::into_ok) {
        Ok(reply) => {
            if let Err(e) = common::check_stu_dump(&reply.body(), &sent, p.cfd) {
                errors.push(e);
            }
        }
        Err(e) => errors.push(format!("SQL: {e}")),
    }
    drop(text);
    handle.shutdown();
    Round {
        setup_s,
        calibration_s,
        push_us,
        read_us,
        attempted,
        failed,
        errors,
        scraped,
    }
}

fn scrape(c: &mut Client, session: &str) -> Scraped {
    let metrics = c
        .metrics()
        .and_then(SReply::into_ok)
        .expect("METRICS")
        .body();
    let stats = c
        .stats(Some(session))
        .and_then(SReply::into_ok)
        .expect("STATS")
        .body();
    let mut s = Scraped::from_scrape(&metrics, &stats, "PUSH");
    let slow = c
        .trace(true, 1)
        .and_then(SReply::into_ok)
        .expect("TRACE")
        .body();
    s.slowest_us = slow
        .split_whitespace()
        .find_map(|w| w.strip_prefix("total_us="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    s
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let p = kind.params();
    let (plain, traced) = common::run_rounds(
        args,
        |traced| round(args.seed, p, traced),
        |r| {
            format!(
                "setup {:.3}s, {:.1} tuples/s, PUSH p50 {:.1}us, STATS p50 {:.1}us, calibration {:.1}ms",
                r.setup_s,
                r.tuples_per_s(),
                median(&r.push_us),
                median(&r.read_us),
                r.calibration_s * 1e3
            )
        },
    );
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let mut errors: Vec<String> = all.iter().flat_map(|r| r.errors.clone()).collect();
    let mut m = Figures::new();
    end_to_end(&plain, &mut m);
    if args.trace {
        let mut t = Figures::new();
        end_to_end(&traced, &mut t);
        common::trace_overhead(&mut m, &t);
        let rtt = mean(
            &traced
                .iter()
                .flat_map(|r| r.push_us.clone())
                .collect::<Vec<_>>(),
        );
        let scraped: Vec<ServerSample> = traced.iter().filter_map(|r| r.scraped.clone()).collect();
        server_figures(&scraped, rtt, &mut m);
        probes::session_layers(p.preload, p.cfd, args.seed, &mut m);
        errors.extend(probes::durable_layers(args.seed, &mut m));
        print_push_breakdown(&m);
    }
    for e in errors.iter().take(10) {
        eprintln!("CHECK FAILED: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        metrics: m,
    }
}

fn end_to_end(rounds: &[Round], m: &mut Figures) {
    let push: Vec<f64> = rounds.iter().flat_map(|r| r.push_us.clone()).collect();
    let read: Vec<f64> = rounds.iter().flat_map(|r| r.read_us.clone()).collect();
    // The gated figures at the reference host's speed (README, "Estimators").
    let scaled = |r: &Round, t: f64| common::at_reference_speed(t, r.calibration_s);
    let setup: Vec<f64> = rounds.iter().map(|r| scaled(r, r.setup_s)).collect();
    let scaled_push: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.push_us.iter().map(move |&t| scaled(r, t)))
        .collect();
    // Throughput per window of `READ_EVERY` PUSHes, median over the run's
    // windows: a stall of a few milliseconds lands in one window instead of
    // moving a whole round's mean.
    let windows: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.push_us
                .chunks(READ_EVERY)
                .map(move |w| w.len() as f64 / (scaled(r, w.iter().sum::<f64>()) / 1e6))
        })
        .collect();
    let calibration: Vec<f64> = rounds.iter().map(|r| r.calibration_s).collect();
    m.insert("setup_s", median(&setup));
    m.insert("tuples_per_s", median(&windows));
    m.insert("latency_us", median(&scaled_push));
    m.insert("host.calibration_ms", median(&calibration) * 1e3);
    m.insert("read.p50_us", median(&read));
    m.insert("peak_rss_mb", common::peak_rss_mb());
    m.insert("tail.p99_us", percentile(&push, 99.0));
    m.insert("tail.read_p99_us", percentile(&read, 99.0));
}

/// Engine and reactor figures, averaged over traced rounds: per timed
/// request, except the phases that run only on a repository miss (match,
/// translate, scriptgen), which are per generated script over the session.
pub fn server_figures(samples: &[ServerSample], client_rtt_us: f64, m: &mut Figures) {
    let avg = |f: &dyn Fn(&ServerSample) -> f64| {
        samples.iter().map(f).sum::<f64>() / samples.len() as f64
    };
    let per_request = |f: &dyn Fn(&Scraped) -> f64| avg(&|s| f(&s.during) / s.requests);
    let per_miss = |f: &dyn Fn(&Scraped) -> f64| avg(&|s| f(&s.total) / s.total.misses.max(1.0));
    for (i, name) in [
        "engine.tree_build_ms",
        "engine.match_ms",
        "engine.translate_ms",
        "engine.scriptgen_ms",
        "engine.script_run_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let v = if (1..=3).contains(&i) {
            per_miss(&|s| s.phases_s[i])
        } else {
            per_request(&|s| s.phases_s[i])
        };
        m.insert(name, v * 1e3);
    }
    let (tg, te) = (
        per_request(&|s| s.tg_s) * 1e3,
        per_request(&|s| s.te_s) * 1e3,
    );
    m.insert("engine.tg_ms", tg);
    m.insert("engine.te_ms", te);
    m.insert("engine.outside_ms", client_rtt_us / 1e3 - tg - te);
    let (misses, hits) = (avg(&|s| s.total.misses), avg(&|s| s.total.hits));
    m.insert("engine.scripts_generated", misses);
    m.insert("engine.reuse_ratio", hits / (misses + hits).max(1.0));
    let mut staged = 0.0;
    for (i, name) in [
        "reactor.read_us",
        "reactor.parse_us",
        "reactor.queue_wait_us",
        "reactor.exec_us",
        "reactor.flush_us",
    ]
    .into_iter()
    .enumerate()
    {
        let v = per_request(&|s| s.stages_s[i]) * 1e6;
        staged += v;
        m.insert(name, v);
    }
    m.insert("reactor.client_rtt_us", client_rtt_us);
    m.insert("reactor.unattributed_us", client_rtt_us - staged);
    m.insert(
        "reactor.exec_unattributed_us",
        m["reactor.exec_us"] - (tg + te) * 1e3,
    );
    let slowest = avg(&|s| s.total.slowest_us);
    if slowest > 0.0 {
        eprintln!("slowest traced request span (TRACE slow 1): {slowest:.1}us");
    }
}

/// How the parts of one `PUSH` sum back to the client's round trip.
fn print_push_breakdown(m: &Figures) {
    let g = |k: &str| m[k];
    eprintln!("parts of one PUSH (means over the traced rounds):");
    eprintln!(
        "  client round trip            {:>10.1} us",
        g("reactor.client_rtt_us")
    );
    for st in ["read", "parse", "queue_wait", "exec", "flush"] {
        eprintln!(
            "    reactor {st:<20} {:>10.1} us",
            g(&format!("reactor.{st}_us"))
        );
    }
    eprintln!(
        "    unattributed by the reactor  {:>10.1} us",
        g("reactor.unattributed_us")
    );
    eprintln!("  inside exec:");
    eprintln!(
        "    engine Tg+Te               {:>10.1} us",
        (g("engine.tg_ms") + g("engine.te_ms")) * 1e3
    );
    eprintln!(
        "    unattributed by the engine {:>10.1} us",
        g("reactor.exec_unattributed_us")
    );
    eprintln!("  in-process session calls at this size (probe):");
    eprintln!(
        "    exchange_tuple             {:>10.1} us",
        g("session.exchange_tuple_us")
    );
    eprintln!(
        "    report_snapshot            {:>10.1} us",
        g("session.report_snapshot_us")
    );
    eprintln!(
        "    read_snapshot (publish)    {:>10.1} us",
        g("session.read_snapshot_us")
    );
    eprintln!(
        "    manager publish            {:>10.1} us",
        g("manager.publish_us")
    );
}
