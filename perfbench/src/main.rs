//! The repository benchmark: four workloads over the SEDEX engine and the
//! exchange service, each run from this one process, each checking its own
//! outputs against expectations computed from its own seeded inputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exchange_batch|push_large|ingest_read|push_cfd> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A human-readable account goes to stderr. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones ([`E2E`]), measured with
//! every tracing hook of the program off; with `--trace 1` they are the
//! per-layer ones ([`LAYERS`]), measured by timing calls into each layer's
//! public functions and by scraping what the program exposes (report
//! phases, `METRICS`, `TRACE`). See `perfbench/README.md`.

mod common;
mod exchange;
mod ingest;
mod probes;
mod push;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

use common::{Args, Figures, Outcome};

/// The system allocator, counting live heap bytes while [`COUNTING`] is on
/// (the traced run: `storage.heap_bytes_per_tuple`). Off, it costs one
/// relaxed load per call.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// keeps a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live heap bytes counted since the traced run started.
pub fn live_heap_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// End-to-end metrics: name and unit. Every workload reports every one.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tuples_per_s", "1/s"),
    ("latency_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. Every workload reports every one in
/// its traced run — measured on the workload's own data where it reaches the
/// layer, by a fixed-size probe where it does not (README, "Per-layer").
pub const LAYERS: &[(&str, &str)] = &[
    ("engine.tree_build_ms", "ms"),
    ("engine.match_ms", "ms"),
    ("engine.translate_ms", "ms"),
    ("engine.scriptgen_ms", "ms"),
    ("engine.script_run_ms", "ms"),
    ("engine.tg_ms", "ms"),
    ("engine.te_ms", "ms"),
    ("engine.outside_ms", "ms"),
    ("engine.scripts_generated", "count"),
    ("engine.reuse_ratio", "ratio"),
    ("scenarios.populate_ms", "ms"),
    ("storage.heap_bytes_per_tuple", "B"),
    ("storage.stats_us", "us"),
    ("storage.snapshot_us", "us"),
    ("session.exchange_tuple_us", "us"),
    ("session.report_snapshot_us", "us"),
    ("session.read_snapshot_us", "us"),
    ("session.push_us_1k", "us"),
    ("session.push_us_large", "us"),
    ("session.push_growth", "ratio"),
    ("manager.publish_us", "us"),
    ("reactor.read_us", "us"),
    ("reactor.parse_us", "us"),
    ("reactor.queue_wait_us", "us"),
    ("reactor.exec_us", "us"),
    ("reactor.flush_us", "us"),
    ("reactor.client_rtt_us", "us"),
    ("reactor.unattributed_us", "us"),
    ("reactor.exec_unattributed_us", "us"),
    ("durable.wal_appends_per_tuple", "count"),
    ("durable.wal_bytes_per_tuple", "B"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_stall_ms", "ms"),
    ("durable.disk_bytes_per_tuple", "B"),
    ("durable.recovery_ms", "ms"),
    ("read.sql_render_ms", "ms"),
    ("read.snapshot_stats_us", "us"),
    ("read.p50_us", "us"),
    ("cfd.apply_us", "us"),
    ("tail.p99_us", "us"),
    ("tail.read_p99_us", "us"),
    ("trace.overhead_latency_pct", "%"),
    ("trace.overhead_tps_pct", "%"),
    ("host.calibration_ms", "ms"),
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <exchange_batch|push_large|ingest_read|push_cfd> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // One chain of work at a time runs steadier on one CPU (see
    // `pin_to_one_cpu`); `ingest_read` runs a writer, a reader and the
    // server's workers side by side, so it keeps every CPU.
    if args.workload != "ingest_read" {
        match common::pin_to_one_cpu() {
            Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
            None => eprintln!("perfbench: running unpinned"),
        }
    }
    // Counting starts before anything is allocated for the workload, so
    // every free it sees matches an allocation it counted.
    COUNTING.store(args.trace, Ordering::Relaxed);
    let outcome = match args.workload.as_str() {
        "exchange_batch" => exchange::run(&args),
        "push_large" => push::run(&args, push::Kind::Large),
        "push_cfd" => push::run(&args, push::Kind::Cfd),
        "ingest_read" => ingest::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    common::remove_tmp_root();
    print_outcome(&args, outcome);
}

fn print_outcome(args: &Args, outcome: Outcome) {
    let wanted = if args.trace { LAYERS } else { E2E };
    let figures: &Figures = &outcome.metrics;
    let mut parts = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = figures
            .get(name)
            .unwrap_or_else(|| panic!("workload `{}` did not measure `{name}`", args.workload));
        assert!(
            value.is_finite(),
            "`{name}` is not a finite number: {value}"
        );
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            common::json_number(*value)
        ));
    }
    eprintln!(
        "perfbench {}: correct={} attempted={} failed={}",
        args.workload, outcome.correct, outcome.attempted, outcome.failed
    );
    for (name, unit) in wanted {
        eprintln!("  {name:<32} {:>16.4} {unit}", figures.get(name).unwrap());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    );
}
