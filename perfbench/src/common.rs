//! Shared plumbing: arguments, round pacing, statistics, process memory,
//! the seeded Student/Dep inputs of the service workloads and the checks
//! run on what the service hands back.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sedex_scenarios::rng::SmallRng;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value `{value}` for --trace")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The CPUs this process could run on at start, before [`pin_to_one_cpu`].
static BOX_CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Worker threads of a server with default settings on this machine
/// (`ServerConfig::default()`'s rule, taken before the process was
/// pinned).
pub fn default_workers() -> usize {
    box_cpus().min(8)
}

fn box_cpus() -> usize {
    *BOX_CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Pin this process — and every thread it starts afterwards — to one CPU,
/// the last one it may run on. The service workloads' round trips hop
/// between four threads (client, reactor, worker, reactor); on a VM a hop
/// that wakes the other vCPU costs more, and varies far more from run to
/// run, than a hop on the same CPU. Returns the CPU, or `None` where the
/// affinity calls are unavailable (the process then runs unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    box_cpus();
    affinity::pin_last()
}

#[cfg(target_os = "linux")]
mod affinity {
    const MASK_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn pin_last() -> Option<usize> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is valid for writes of `MASK_BYTES` bytes, the size
        // passed; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..MASK_BYTES * 8)
            .rev()
            .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; MASK_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is valid for reads of `MASK_BYTES` bytes.
        (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_last() -> Option<usize> {
        None
    }
}

/// Metric values by name.
pub type Figures = HashMap<&'static str, f64>;

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Figures,
}

/// Run whole rounds until `args.seconds` have passed: at least two, and
/// in the traced run at least four, alternating untraced and traced so that
/// the tracing overhead is measured inside one process. Returns the
/// untraced rounds and the traced ones.
pub fn run_rounds<R>(
    args: &Args,
    mut round: impl FnMut(bool) -> R,
    describe: impl Fn(&R) -> String,
) -> (Vec<R>, Vec<R>) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { 4 } else { 2 };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut n = 0;
    while n < min_rounds || start.elapsed() < budget {
        n += 1;
        let trace_round = args.trace && n % 2 == 0;
        let r = round(trace_round);
        let tag = if trace_round { " (traced)" } else { "" };
        eprintln!("round {n}{tag}: {}", describe(&r));
        if trace_round {
            traced.push(r);
        } else {
            plain.push(r);
        }
    }
    (plain, traced)
}

/// `trace.overhead_*`: how much worse the traced rounds' figures read
/// than the untraced ones in `m`, in percent.
pub fn trace_overhead(m: &mut Figures, traced: &Figures) {
    let worse = |k: &str, lower_is_better: bool| {
        let d = (traced[k] - m[k]) / m[k] * 100.0;
        if lower_is_better {
            d
        } else {
            -d
        }
    };
    let (p50, tps) = (worse("latency_us", true), worse("tuples_per_s", false));
    m.insert("trace.overhead_latency_pct", p50);
    m.insert("trace.overhead_tps_pct", tps);
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Seconds [`calibrate_s`] takes on the reference host (the 2-core VM the
/// README's figures come from, in a quiet minute). A timing scaled by
/// `CALIBRATION_REF_S / calibrate_s()` reads what it would on that host.
pub const CALIBRATION_REF_S: f64 = 0.014;

/// Time a fixed piece of work that belongs to the benchmark, not to the
/// program: random inserts and lookups in a 4 MiB open-addressing table, then
/// a sort — hashing, cache misses and branches, the mix an exchange is made
/// of. Other tenants of the host slow it down as they slow the program down,
/// so the ratio of the two repeats where neither alone does (README,
/// "Estimators"). It allocates nothing while timed, so the state the program
/// leaves the allocator in does not reach it.
pub fn calibrate_s() -> f64 {
    CALIBRATION.with(|c| {
        let c = &mut *c.borrow_mut();
        let t = Instant::now();
        std::hint::black_box(calibration_kernel(c));
        t.elapsed().as_secs_f64()
    })
}

const CALIBRATION_SLOTS: usize = 1 << 19;
const CALIBRATION_OPS: usize = 200_000;
const CALIBRATION_SORTED: usize = 100_000;

struct CalibrationBuffers {
    table: Vec<u64>,
    template: Vec<u64>,
    work: Vec<u64>,
}

thread_local! {
    static CALIBRATION: std::cell::RefCell<CalibrationBuffers> = {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut c = CalibrationBuffers {
            table: vec![0; CALIBRATION_SLOTS],
            template: (0..CALIBRATION_SORTED).map(|_| xorshift(&mut x)).collect(),
            work: Vec::with_capacity(CALIBRATION_SORTED),
        };
        // Once untimed, so every page is touched before the first timing.
        calibration_kernel(&mut c);
        std::cell::RefCell::new(c)
    };
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn calibration_kernel(c: &mut CalibrationBuffers) -> u64 {
    let mask = CALIBRATION_SLOTS - 1;
    let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 45) as usize & mask;
    c.table.fill(0);
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..CALIBRATION_OPS {
        let k = xorshift(&mut x) | 1;
        let mut i = slot(k);
        while c.table[i] != 0 && c.table[i] != k {
            i = (i + 1) & mask;
        }
        c.table[i] = k;
    }
    let mut hits = 0u64;
    for _ in 0..CALIBRATION_OPS {
        // Half of the probes look for keys that were inserted.
        let k = if x & 2 == 0 { xorshift(&mut x) | 1 } else { xorshift(&mut x) & !1 };
        let mut i = slot(k);
        while c.table[i] != 0 {
            if c.table[i] == k {
                hits += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    c.work.clear();
    c.work.extend_from_slice(&c.template);
    c.work.sort_unstable();
    hits ^ c.work[CALIBRATION_SORTED / 2]
}

/// A timing taken while [`calibrate_s`] took `calibration_s`, scaled to the
/// reference host's speed.
pub fn at_reference_speed(timing: f64, calibration_s: f64) -> f64 {
    timing * CALIBRATION_REF_S / calibration_s
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median microseconds of `k` timed calls of `f`.
pub fn time_median_us(k: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..k)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`), or 0 where the
/// file does not exist.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM") as f64 / 1024.0
}

const TMP_ROOT: &str = ".perfbench_tmp";

/// A fresh, empty directory under `.perfbench_tmp/` in the working
/// directory (the checkout), unique to this process.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(TMP_ROOT).join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Remove this process's scratch directories (and the root when empty).
pub fn remove_tmp_root() {
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(TMP_ROOT) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let _ = std::fs::remove_dir(TMP_ROOT);
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

// ---------------------------------------------------------------------------
// The Student/Dep scenario of the service workloads.

/// The exchange scenario every service workload opens: students referencing
/// departments, exchanged into one flat `Stu` relation.
pub const PUSH_SCHEMA: &str = "\
[source]
Dep(dname*, building)
Student(sname*, program, dep->Dep)

[target]
Stu(student*, prog, dpt)

[correspondences]
sname <-> student
program <-> prog
dep <-> dpt
";

/// The intra-table CFD of `push_cfd`: a `cs` student with no department
/// belongs to `d0`.
pub const CFD_RULE: &str = "Student.program = 'cs' => Student.dep = 'd0'";
const CFD_PROGRAM: &str = "cs";
const CFD_DEP: &str = "d0";

/// Departments every input set references.
pub const DEPARTMENTS: usize = 32;

/// One generated source student.
#[derive(Clone, Debug)]
pub struct Student {
    pub name: String,
    pub program: String,
    pub dep: Option<String>,
}

impl Student {
    /// The data line sent to the service (`_` is a null).
    pub fn line(&self) -> String {
        format!(
            "Student: {}, {}, {}",
            self.name,
            self.program,
            self.dep.as_deref().unwrap_or("_")
        )
    }

    /// The `dpt` the exchanged `Stu` row must carry: the sent department,
    /// or, under the CFD, `d0` for a `cs` student sent without one.
    pub fn expected_dpt(&self, cfd: bool) -> Option<String> {
        match &self.dep {
            Some(d) => Some(d.clone()),
            None if cfd && self.program == CFD_PROGRAM => Some(CFD_DEP.to_owned()),
            None => None,
        }
    }
}

/// Seeded generator of students: unique names (a per-set tag plus a
/// counter), one of 40 programs (`cs` 1 in 5 under the CFD mix), and a
/// department or a null.
pub struct StudentGen {
    rng: SmallRng,
    tag: String,
    next: usize,
    cfd_mix: bool,
}

impl StudentGen {
    pub fn new(seed: u64, tag: &str, cfd_mix: bool) -> StudentGen {
        StudentGen {
            rng: SmallRng::seed_from_u64(seed),
            tag: tag.to_owned(),
            next: 0,
            cfd_mix,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Student> {
        (0..n).map(|_| self.one()).collect()
    }

    fn one(&mut self) -> Student {
        let id = self.next;
        self.next += 1;
        let salt = self.rng.next_u64() % 1_000_000;
        let program = if self.cfd_mix && self.rng.gen_bool(0.2) {
            CFD_PROGRAM.to_owned()
        } else {
            format!("p{}", self.rng.gen_index(40))
        };
        let null_share = if self.cfd_mix { 0.5 } else { 0.2 };
        let dep = if self.rng.gen_bool(null_share) {
            None
        } else {
            Some(format!("d{}", self.rng.gen_index(DEPARTMENTS)))
        };
        Student {
            name: format!("s{}x{id}y{salt}", self.tag),
            program,
            dep,
        }
    }
}

/// The `Dep` data lines every session is fed before students arrive.
pub fn dep_lines() -> Vec<String> {
    (0..DEPARTMENTS)
        .map(|k| format!("Dep: d{k}, b{k}"))
        .collect()
}

/// An OPEN body: the schema, optional `[data]` lines and optional CFD.
pub fn open_body(data: &[String], cfd: bool) -> String {
    let mut body = PUSH_SCHEMA.to_owned();
    if !data.is_empty() {
        body.push_str("\n[data]\n");
        for l in data {
            body.push_str(l);
            body.push('\n');
        }
    }
    if cfd {
        body.push_str("\n[cfds]\n");
        body.push_str(CFD_RULE);
        body.push('\n');
    }
    body
}

/// Check an `SQL` dump against the students sent: exactly one `Stu` row
/// per sent student, carrying the sent name and program and the expected
/// department, and no other row.
pub fn check_stu_dump(dump: &str, sent: &[&Student], cfd: bool) -> Result<(), String> {
    let mut expected: HashMap<&str, (&str, Option<String>)> = HashMap::with_capacity(sent.len());
    for s in sent {
        expected.insert(&s.name, (&s.program, s.expected_dpt(cfd)));
    }
    let mut seen: HashSet<String> = HashSet::with_capacity(sent.len());
    const HEAD: &str = "INSERT INTO Stu (student, prog, dpt) VALUES (";
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        let vals = line
            .strip_prefix(HEAD)
            .and_then(|r| r.strip_suffix(");"))
            .ok_or_else(|| format!("unexpected dump line: {line}"))?;
        let cols: Vec<Option<&str>> = vals
            .split(", ")
            .map(|v| v.strip_prefix('\'').and_then(|v| v.strip_suffix('\'')))
            .collect();
        let [Some(name), Some(prog), dpt] = cols[..] else {
            return Err(format!("malformed Stu row: {line}"));
        };
        if dpt.is_none() && !vals.ends_with("NULL") {
            return Err(format!("malformed dpt in: {line}"));
        }
        let (want_prog, want_dpt) = expected
            .get(name)
            .ok_or_else(|| format!("Stu row for a student never sent: {line}"))?;
        if *want_prog != prog || want_dpt.as_deref() != dpt {
            return Err(format!(
                "wrong values for {name}: got ({prog}, {dpt:?}), want ({want_prog}, {want_dpt:?})"
            ));
        }
        if !seen.insert(name.to_owned()) {
            return Err(format!("duplicate Stu row for {name}"));
        }
    }
    if seen.len() != expected.len() {
        return Err(format!(
            "{} of {} sent students have a Stu row",
            seen.len(),
            expected.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reading what the service exposes.

/// Sum of every Prometheus sample named `name` whose labels include all of
/// `labels` (`key="value"` pairs).
pub fn prom_sum(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, label_text) = match series.split_once('{') {
                Some((m, rest)) => (m, rest),
                None => (series, ""),
            };
            if metric != name {
                return None;
            }
            let all = labels
                .iter()
                .all(|(k, v)| label_text.contains(&format!("{k}=\"{v}\"")));
            all.then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// A `Tg …, Te …` pair out of a per-session `STATS` body, in seconds.
pub fn stats_tg_te(body: &str) -> (f64, f64) {
    let line = body
        .lines()
        .find(|l| l.starts_with("time: Tg "))
        .unwrap_or_else(|| panic!("no time line in STATS body:\n{body}"));
    let mut parts = line
        .trim_start_matches("time: ")
        .split(", ")
        .map(|p| parse_debug_duration(p.split_once(' ').map_or("", |x| x.1)));
    (parts.next().unwrap(), parts.next().unwrap())
}

/// Parse a `Duration` rendered with `{:?}` (`1.5ms`, `830ns`, `2.1s`).
fn parse_debug_duration(s: &str) -> f64 {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1e-9)
    } else if let Some(n) = s.strip_suffix("µs") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        panic!("unparseable duration `{s}`")
    };
    num.parse::<f64>()
        .unwrap_or_else(|_| panic!("unparseable duration `{s}`"))
        * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_durations_parse() {
        assert!((parse_debug_duration("830ns") - 830e-9).abs() < 1e-15);
        assert!((parse_debug_duration("1.5ms") - 1.5e-3).abs() < 1e-12);
        assert!((parse_debug_duration("12.25µs") - 12.25e-6).abs() < 1e-12);
        assert_eq!(parse_debug_duration("2s"), 2.0);
    }

    #[test]
    fn dump_check_accepts_exact_and_rejects_missing() {
        let s = Student {
            name: "a".into(),
            program: "cs".into(),
            dep: None,
        };
        let ok = "INSERT INTO Stu (student, prog, dpt) VALUES ('a', 'cs', 'd0');\n";
        assert!(check_stu_dump(ok, &[&s], true).is_ok());
        assert!(check_stu_dump(ok, &[&s], false).is_err());
        let null = "INSERT INTO Stu (student, prog, dpt) VALUES ('a', 'cs', NULL);\n";
        assert!(check_stu_dump(null, &[&s], false).is_ok());
        assert!(check_stu_dump("", &[&s], false).is_err());
    }

    #[test]
    fn prom_sum_filters_labels() {
        let text =
            "# HELP x\nsedex_stage_seconds_sum{proto=\"text\",stage=\"exec\",verb=\"PUSH\"} 0.5\n\
                    sedex_stage_seconds_sum{proto=\"text\",stage=\"read\",verb=\"PUSH\"} 0.25\n";
        assert_eq!(
            prom_sum(text, "sedex_stage_seconds_sum", &[("stage", "exec")]),
            0.5
        );
        assert_eq!(prom_sum(text, "sedex_stage_seconds_sum", &[]), 0.75);
    }
}
