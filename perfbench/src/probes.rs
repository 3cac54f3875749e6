//! Layer probes: timed calls into one layer's public functions, on a
//! session built in process from the service workloads' Student/Dep
//! scenario. A workload measures the layers it reaches on its own data and
//! fills the rest from these probes (see the README's per-layer table);
//! a figure already measured is never overwritten.

use std::time::{Duration, Instant};

use sedex_core::{CfdInterpreter, SedexConfig, SedexSession};
use sedex_scenarios::textfmt;
use sedex_service::{sql_dump_snapshot, SessionManager};

use crate::common::{self, median, us, Figures, Student, StudentGen};
use crate::{ingest, push};

/// Session size of the probes run by `exchange_batch`, which has no
/// session of its own.
pub const PROBE_SESSION_TUPLES: usize = 20_000;
/// Size of the small session `session.push_us_1k` is measured on.
const SMALL_SESSION: usize = 1_000;
/// Timed calls per probe.
const SAMPLES: usize = 200;

fn merge_missing(m: &mut Figures, found: Figures) {
    for (k, v) in found {
        m.entry(k).or_insert(v);
    }
}

/// A session over the Student/Dep scenario holding `n` students:
/// exchanged one by one, or — under the CFD — fed, as `push_cfd` seeds it.
fn session(n: usize, cfd: bool, seed: u64, tag: &str) -> (SedexSession, StudentGen) {
    let file = textfmt::parse_scenario(&common::open_body(&common::dep_lines(), cfd))
        .expect("scenario parses");
    let s = file.scenario;
    let mut session = SedexSession::new(SedexConfig::default(), s.source, s.target, s.sigma)
        .expect("session")
        .with_cfds(file.cfds);
    for (rel, inst) in file.instance.relations() {
        for t in inst.iter() {
            session.feed(rel, t.clone()).expect("feed Dep");
        }
    }
    let mut gen = StudentGen::new(seed, tag, cfd);
    for st in gen.take(n) {
        let (rel, tuple) = parse(&st);
        if cfd {
            session.feed(&rel, tuple).expect("feed Student");
        } else {
            session
                .exchange_tuple(&rel, tuple)
                .expect("exchange Student");
        }
    }
    (session, gen)
}

fn parse(s: &Student) -> (String, sedex_storage::Tuple) {
    textfmt::parse_data_line(&s.line(), 0).expect("data line parses")
}

/// Per-call medians of the three session calls the service makes per PUSH.
struct PushParts {
    exchange: f64,
    report: f64,
    read_snapshot: f64,
    push: f64,
}

fn push_parts(session: &mut SedexSession, gen: &mut StudentGen) -> PushParts {
    let (mut ex, mut rep, mut rs, mut all) = (vec![], vec![], vec![], vec![]);
    for st in gen.take(SAMPLES) {
        let (rel, tuple) = parse(&st);
        let t0 = Instant::now();
        session.exchange_tuple(&rel, tuple).expect("exchange");
        let t1 = Instant::now();
        std::hint::black_box(session.report_snapshot());
        let t2 = Instant::now();
        std::hint::black_box(session.read_snapshot());
        let t3 = Instant::now();
        ex.push(us(t1 - t0));
        rep.push(us(t2 - t1));
        rs.push(us(t3 - t2));
        all.push(us(t3 - t0));
    }
    PushParts {
        exchange: median(&ex),
        report: median(&rep),
        read_snapshot: median(&rs),
        push: median(&all),
    }
}

/// Session, manager, storage, read, CFD and populate figures on a session
/// of `n` students (with the CFD when `cfd`).
pub fn session_layers(n: usize, cfd: bool, seed: u64, m: &mut Figures) {
    let mut f = Figures::new();
    let heap_before = crate::live_heap_bytes();
    let (mut large, mut gen) = session(n, cfd, seed, "probe");
    f.insert(
        "storage.heap_bytes_per_tuple",
        (crate::live_heap_bytes() - heap_before) as f64 / n as f64,
    );
    let parts = push_parts(&mut large, &mut gen);
    let (mut small, mut small_gen) = session(SMALL_SESSION, cfd, seed, "small");
    let small_parts = push_parts(&mut small, &mut small_gen);
    f.insert("session.exchange_tuple_us", parts.exchange);
    f.insert("session.report_snapshot_us", parts.report);
    f.insert("session.read_snapshot_us", parts.read_snapshot);
    f.insert("session.push_us_1k", small_parts.push);
    f.insert("session.push_us_large", parts.push);
    f.insert("session.push_growth", parts.push / small_parts.push);

    let target = large.target();
    f.insert(
        "storage.stats_us",
        common::time_median_us(SAMPLES, || {
            std::hint::black_box(target.stats());
        }),
    );
    f.insert(
        "storage.snapshot_us",
        common::time_median_us(SAMPLES, || {
            std::hint::black_box(target.snapshot());
        }),
    );
    let snap = target.snapshot();
    f.insert(
        "read.sql_render_ms",
        common::time_median_us(5, || {
            std::hint::black_box(sql_dump_snapshot(&snap));
        }) / 1e3,
    );
    f.insert(
        "read.snapshot_stats_us",
        common::time_median_us(21, || {
            std::hint::black_box(snap.stats());
        }),
    );

    let rule = CfdInterpreter::parse(common::CFD_RULE).expect("CFD parses");
    let mut apply = Vec::new();
    for _ in 0..5 {
        let mut source = large.source().clone();
        let t = Instant::now();
        rule.apply(&mut source).expect("CFD apply");
        apply.push(us(t.elapsed()));
    }
    f.insert("cfd.apply_us", median(&apply));
    drop(large);
    drop(small);

    f.insert("manager.publish_us", publish_us(n, cfd, seed));

    let scenario = textfmt::parse_scenario(common::PUSH_SCHEMA)
        .expect("scenario parses")
        .scenario;
    let populate: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(scenario.populate(n / 2, seed).expect("populate"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    f.insert("scenarios.populate_ms", median(&populate));
    merge_missing(m, f);
}

/// `SessionManager::with_tenant` time minus the time inside its closure
/// (which exchanges one tuple and builds the reply's report, as a PUSH
/// does): the tenant lookup, the lock and the publish.
fn publish_us(n: usize, cfd: bool, seed: u64) -> f64 {
    let mut gen = StudentGen::new(seed, "mgr", cfd);
    let preload = gen.take(n);
    let mut data = common::dep_lines();
    if cfd {
        data.extend(preload.iter().map(Student::line));
    }
    let mgr = SessionManager::new(16);
    mgr.open("probe", &common::open_body(&data, cfd))
        .expect("manager OPEN");
    if !cfd {
        for chunk in preload.chunks(500) {
            mgr.with_tenant("probe", |t| {
                for st in chunk {
                    let (rel, tuple) = parse(st);
                    t.session.exchange_tuple(&rel, tuple).expect("exchange");
                }
            })
            .expect("with_tenant");
        }
    }
    let samples: Vec<f64> = gen
        .take(SAMPLES)
        .iter()
        .map(|st| {
            let (rel, tuple) = parse(st);
            let mut inner = Duration::ZERO;
            let t = Instant::now();
            mgr.with_tenant("probe", |t| {
                let i = Instant::now();
                t.session.exchange_tuple(&rel, tuple).expect("exchange");
                std::hint::black_box(t.session.report_snapshot());
                inner = i.elapsed();
            })
            .expect("with_tenant");
            us(t.elapsed() - inner)
        })
        .collect();
    median(&samples)
}

/// Reactor figures for workloads without a server: one traced
/// `push_large`-style round at a small size. Returns the round's failed
/// output checks.
pub fn server_layers(seed: u64, m: &mut Figures) -> Vec<String> {
    let p = push::Params {
        preload: 2_000,
        pushes: 1_000,
        cfd: false,
    };
    let r = push::round(seed, p, true);
    let mut f = Figures::new();
    let rtt = common::mean(&r.push_us);
    push::server_figures(r.scraped.as_slice(), rtt, &mut f);
    f.retain(|k, _| k.starts_with("reactor."));
    merge_missing(m, f);
    r.errors
}

/// WAL, checkpoint, disk and recovery figures for workloads without a
/// durable server: one traced `ingest_read` round at a small size, crash
/// and recovery check included. Returns the round's failed output checks.
pub fn durable_layers(seed: u64, m: &mut Figures) -> Vec<String> {
    let r = ingest::round(seed, 6_000, true);
    let mut f = Figures::new();
    ingest::durable_figures(std::slice::from_ref(&r), &mut f);
    merge_missing(m, f);
    r.errors
}
