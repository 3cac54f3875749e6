//! `ingest_read`: a durable server (`data_dir` in a fresh directory,
//! `FsyncPolicy::Off`, default `snapshot_every`) grows one session from
//! empty by closed-loop binary `PUSH_BATCH`es of [`BATCH`] students, while a
//! second connection on its own thread reads the same session open-loop
//! every [`READ_INTERVAL_MS`] ms — per-session `STATS`, and `SQL` every
//! [`SQL_EVERY`]th read — timed from when each read was due.
//!
//! After the ingest the server is aborted (no final checkpoint, the
//! in-process `kill -9`), restarted on the same `data_dir`, and every
//! acknowledged row must be served again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_durable::FsyncPolicy;
use sedex_service::{Client, Reply as SReply, Server, ServerConfig};

use crate::common::{
    self, mean, median, percentile, prom_sum, us, Args, Figures, Outcome, Student, StudentGen,
};
use crate::probes;
use crate::push::{self, Scraped, ServerSample};

/// Students ingested per round.
pub const ROWS: usize = 30_000;
/// Students per `PUSH_BATCH`.
pub const BATCH: usize = 200;
pub const READ_INTERVAL_MS: u64 = 20;
pub const SQL_EVERY: usize = 25;

pub struct Round {
    pub setup_s: f64,
    pub ingest_s: f64,
    pub rows: usize,
    pub batch_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub max_late_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub disk_bytes: u64,
    pub recovery_ms: f64,
    /// Traced rounds only.
    pub traced: Option<TracedIngest>,
}

pub struct TracedIngest {
    pub scraped: ServerSample,
    pub wal_appends: f64,
    pub wal_bytes: f64,
    pub checkpoints: f64,
    pub stall_ms: f64,
}

pub fn round(seed: u64, rows: usize, traced: bool) -> Round {
    let t0 = Instant::now();
    let students = StudentGen::new(seed, "", false).take(rows);
    let dir = common::fresh_dir("ingest");
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Off,
        ..push::server_config(traced)
    };
    let handle = Server::start(config.clone()).expect("durable server start");
    let mut writer = push::client(&handle, true);
    let session = "ingest";
    writer
        .open(session, &common::open_body(&common::dep_lines(), false))
        .and_then(SReply::into_ok)
        .expect("OPEN");
    let setup_s = t0.elapsed().as_secs_f64();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        let mut c = push::client(&handle, false);
        std::thread::spawn(move || {
            let r = read_loop(&mut c, session, &stop);
            (c, r)
        })
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut batch_us = Vec::new();
    let mut crossed = Vec::new();
    let gens_at_start = snapshot_generations(&dir);
    let mut gens = gens_at_start;
    let start = Instant::now();
    for chunk in students.chunks(BATCH) {
        let lines: Vec<String> = chunk.iter().map(Student::line).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        attempted += 1;
        let t = Instant::now();
        let r = writer.push_batch(session, &refs).and_then(SReply::into_ok);
        batch_us.push(us(t.elapsed()));
        if let Err(e) = r {
            failed += 1;
            errors.push(format!("PUSH_BATCH: {e}"));
        }
        if traced {
            // Which batches paid for a checkpoint: a new snapshot file.
            let now = snapshot_generations(&dir);
            crossed.push(now > gens);
            gens = now;
        }
    }
    let ingest_s = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    let (mut reader_client, (read_us, max_late_ms, reads, read_errors)) =
        reader.join().expect("reader thread");
    attempted += reads;
    failed += read_errors.len() as u64;
    errors.extend(read_errors);

    let sent: Vec<&Student> = students.iter().collect();
    check_sql(
        &mut reader_client,
        session,
        &sent,
        "before the crash",
        &mut errors,
    );
    let disk_bytes = common::dir_bytes(&dir);
    let traced_figures = traced.then(|| {
        let metrics = writer
            .metrics()
            .and_then(SReply::into_ok)
            .expect("METRICS")
            .body();
        let stats = writer
            .stats(Some(session))
            .and_then(SReply::into_ok)
            .expect("STATS")
            .body();
        let n = batch_us.len() as f64;
        let stall = |want: bool| {
            let v: Vec<f64> = batch_us
                .iter()
                .zip(&crossed)
                .filter(|(_, &c)| c == want)
                .map(|(b, _)| *b)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                mean(&v)
            }
        };
        TracedIngest {
            // The session's whole life is the timed ingest.
            scraped: ServerSample {
                during: Scraped::from_scrape(&metrics, &stats, "PUSH_BATCH"),
                total: Scraped::from_scrape(&metrics, &stats, "PUSH_BATCH"),
                requests: n,
            },
            wal_appends: prom_sum(&metrics, "sedex_wal_appends_total", &[]),
            wal_bytes: prom_sum(&metrics, "sedex_wal_bytes_total", &[]),
            // Not `sedex_checkpoints_total`: that also counts one
            // checkpoint per shard at server start.
            checkpoints: (gens - gens_at_start) as f64,
            stall_ms: (stall(true) - stall(false)) / 1e3,
        }
    });
    drop(writer);
    drop(reader_client);

    // The crash: no final checkpoint; the WAL tail must be replayed.
    handle.abort();
    let t = Instant::now();
    let handle = Server::start(config).expect("restart on the same data_dir");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut c = push::client(&handle, false);
    check_sql(&mut c, session, &sent, "after the crash", &mut errors);
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Round {
        setup_s,
        ingest_s,
        rows,
        batch_us,
        read_us,
        max_late_ms,
        attempted,
        failed,
        errors,
        disk_bytes,
        recovery_ms,
        traced: traced_figures,
    }
}

/// Sum over the shard directories of the newest `snapshot-<g>.snap`
/// generation: it grows by one at every checkpoint. Reading a directory
/// listing leaves the server alone, unlike a `METRICS` scrape per batch.
fn snapshot_generations(dir: &std::path::Path) -> u64 {
    let newest = |shard: std::path::PathBuf| -> u64 {
        std::fs::read_dir(shard)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("snapshot-")?
                    .strip_suffix(".snap")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0)
    };
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| newest(e.path()))
        .sum()
}

fn check_sql(
    c: &mut Client,
    session: &str,
    sent: &[&Student],
    when: &str,
    errors: &mut Vec<String>,
) {
    match c.sql(session).and_then(SReply::into_ok) {
        Ok(reply) => {
            if let Err(e) = common::check_stu_dump(&reply.body(), sent, false) {
                errors.push(format!("{when}: {e}"));
            }
        }
        Err(e) => errors.push(format!("SQL {when}: {e}")),
    }
}

/// The open-loop reader: read `i` is due at `start + i × interval`; its
/// latency runs from that moment, so a stall also delays the reads queued
/// behind it. Returns latencies (µs), the latest send (ms behind its due
/// time), reads attempted and errors.
fn read_loop(
    c: &mut Client,
    session: &str,
    stop: &AtomicBool,
) -> (Vec<f64>, f64, u64, Vec<String>) {
    let interval = Duration::from_millis(READ_INTERVAL_MS);
    let start = Instant::now();
    let (mut lat, mut errors) = (Vec::new(), Vec::new());
    let mut max_late = Duration::ZERO;
    let mut i = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            max_late = max_late.max(now - due);
        }
        let r = if (i + 1).is_multiple_of(SQL_EVERY) {
            c.sql(session)
        } else {
            c.stats(Some(session))
        };
        lat.push(us(due.elapsed()));
        if let Err(e) = r.and_then(SReply::into_ok) {
            errors.push(format!("read {i}: {e}"));
        }
        i += 1;
    }
    (lat, common::ms(max_late), i as u64, errors)
}

pub fn run(args: &Args) -> Outcome {
    let (plain, traced) = common::run_rounds(
        args,
        |traced| round(args.seed, ROWS, traced),
        |r| {
            format!(
                "setup {:.3}s, {:.0} tuples/s, batch p50 {:.0}us, read p50 {:.0}us \
                 ({} reads, latest send {:.1}ms late), {:.1} disk B/tuple, recovery {:.0}ms",
                r.setup_s,
                r.rows as f64 / r.ingest_s,
                median(&r.batch_us),
                median(&r.read_us),
                r.read_us.len(),
                r.max_late_ms,
                r.disk_bytes as f64 / r.rows as f64,
                r.recovery_ms,
            )
        },
    );
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let errors: Vec<&String> = all.iter().flat_map(|r| &r.errors).collect();
    for e in errors.iter().take(10) {
        eprintln!("CHECK FAILED: {e}");
    }
    let mut m = Figures::new();
    end_to_end(&plain, &mut m);
    if args.trace {
        let mut t = Figures::new();
        end_to_end(&traced, &mut t);
        common::trace_overhead(&mut m, &t);
        let tr: Vec<&TracedIngest> = traced.iter().filter_map(|r| r.traced.as_ref()).collect();
        let rtt = mean(
            &traced
                .iter()
                .flat_map(|r| r.batch_us.clone())
                .collect::<Vec<_>>(),
        );
        let scraped: Vec<ServerSample> = tr.iter().map(|t| t.scraped.clone()).collect();
        push::server_figures(&scraped, rtt, &mut m);
        durable_figures(&traced, &mut m);
        probes::session_layers(ROWS, false, args.seed, &mut m);
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        metrics: m,
    }
}

fn end_to_end(rounds: &[Round], m: &mut Figures) {
    let batch: Vec<f64> = rounds.iter().flat_map(|r| r.batch_us.clone()).collect();
    let read: Vec<f64> = rounds.iter().flat_map(|r| r.read_us.clone()).collect();
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let tps: Vec<f64> = rounds.iter().map(|r| r.rows as f64 / r.ingest_s).collect();
    m.insert("setup_s", median(&setup));
    m.insert("tuples_per_s", median(&tps));
    m.insert("latency_us", median(&batch));
    // Not scaled: a writer, a reader and the server's workers share both
    // CPUs here, which one calibrating thread does not describe.
    m.insert("host.calibration_ms", common::calibrate_s() * 1e3);
    m.insert("read.p50_us", median(&read));
    m.insert("peak_rss_mb", common::peak_rss_mb());
    m.insert("tail.p99_us", percentile(&batch, 99.0));
    m.insert("tail.read_p99_us", percentile(&read, 99.0));
}

/// WAL, checkpoint, disk and recovery figures of traced ingest rounds.
pub fn durable_figures(rounds: &[Round], m: &mut Figures) {
    let tr: Vec<(&Round, &TracedIngest)> = rounds
        .iter()
        .filter_map(|r| r.traced.as_ref().map(|t| (r, t)))
        .collect();
    let avg = |f: &dyn Fn(&Round, &TracedIngest) -> f64| {
        tr.iter().map(|(r, t)| f(r, t)).sum::<f64>() / tr.len() as f64
    };
    m.insert(
        "durable.wal_appends_per_tuple",
        avg(&|r, t| t.wal_appends / r.rows as f64),
    );
    m.insert(
        "durable.wal_bytes_per_tuple",
        avg(&|r, t| t.wal_bytes / r.rows as f64),
    );
    m.insert("durable.checkpoints", avg(&|_, t| t.checkpoints));
    m.insert("durable.checkpoint_stall_ms", avg(&|_, t| t.stall_ms));
    m.insert(
        "durable.disk_bytes_per_tuple",
        avg(&|r, _| r.disk_bytes as f64 / r.rows as f64),
    );
    m.insert(
        "durable.recovery_ms",
        median(&rounds.iter().map(|r| r.recovery_ms).collect::<Vec<_>>()),
    );
}
