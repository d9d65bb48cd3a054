//! The repository's end-to-end benchmark: migration throughput, PUT
//! latency and per-migration overhead on four seeded, closed-loop,
//! single-client workloads, plus a traced run that splits each
//! operation into per-layer legs from outside the program.
//!
//! ```sh
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload kv-put --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in
//! its own process. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! non-zero on any correctness failure. See `README.md` next to this
//! package for the workloads, the metrics and what each should move.

mod probe;
mod speed;
mod stats;
mod workloads;

use stats::{peak_rss_mib, Samples};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Config, Run};

type Workload = fn(&Config) -> Run;

/// Name, entry point, and how many operations the same-seed count
/// replay of the traced run repeats.
const WORKLOADS: [(&str, Workload, usize); 4] = [
    ("kv-put", workloads::kv_put, 4),
    ("migrate-64m", workloads::migrate_64m, 1),
    ("migrate-small", workloads::migrate_small, 16),
    ("migrate-repeat", workloads::migrate_repeat, 3),
];

/// Per-layer metrics of the traced run, with their units. Most are the
/// mean per operation of the samples recorded under the same name.
const PER_LAYER: [(&str, &str); 39] = [
    ("library.freeze_ms", "ms"),
    ("host.freeze_persist_ms", "ms"),
    ("me.accept_ms", "ms"),
    ("remote_attest.handshake_ms", "ms"),
    ("me.stream_ms", "ms"),
    ("library.install_ms", "ms"),
    ("host.install_persist_ms", "ms"),
    ("me.complete_ms", "ms"),
    ("me.release_ms", "ms"),
    ("wire.lib_me_bytes", "bytes"),
    ("wire.me_me_bytes", "bytes"),
    ("wire.me_lib_bytes", "bytes"),
    ("wire.me_me_frames", "count"),
    ("disk.bytes", "bytes"),
    ("amp.wire_per_state_byte", "ratio"),
    ("amp.disk_per_state_byte", "ratio"),
    ("sgx.ecalls", "count"),
    ("trace.transitions", "count"),
    ("transfer.delta_fraction", "ratio"),
    ("crypto.seal_mib_s", "MiB/s"),
    ("crypto.open_mib_s", "MiB/s"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("apps.kvstore.put_ms", "ms"),
    ("library.persist_ms", "ms"),
    ("host.persist_ms", "ms"),
    ("sgx.entry_us", "us"),
    ("apps.kvstore.get_us", "us"),
    ("disk.bytes_per_put", "bytes"),
    ("disk.write_amp", "ratio"),
    ("sgx.ecalls_per_op", "count"),
    ("apps.kvstore.load_ms", "ms"),
    ("self.datacenter_ms", "ms"),
    ("self.sgx_ms", "ms"),
    ("self.apps_ms", "ms"),
    ("self.library_ms", "ms"),
    ("self.host_ms", "ms"),
    ("self.me_ms", "ms"),
    ("self.remote_attest_ms", "ms"),
    ("trace.overhead_op_ms_p50", "ms"),
];

/// The layers whose self time the traced run reports, with the metric
/// that carries it.
const SELF_LAYERS: [(&str, &str); 7] = [
    ("datacenter", "self.datacenter_ms"),
    ("sgx", "self.sgx_ms"),
    ("apps", "self.apps_ms"),
    ("library", "self.library_ms"),
    ("host", "self.host_ms"),
    ("me", "self.me_ms"),
    ("remote_attest", "self.remote_attest_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count; `None` for derived values.
    n: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n,
    }
}

fn print_lines(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<28} {:>16.6} {:<6}{n}", m.name, m.value, m.unit);
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The metrics every workload reports with tracing off, in the result
/// line. `op` is the workload's measured operation and `aux` its
/// secondary one (see README.md). Their timings are medians adjusted to
/// the reference speed (see `speed`); the human-readable lines print
/// them as measured, under the workload's own names.
fn end_to_end(run: &Run, rss: f64) -> Vec<Metric> {
    vec![
        metric("op_ms_p50", run.op.adj.median(), "ms", Some(run.op.len())),
        metric(
            "aux_ms_p50",
            run.aux.adj.median(),
            "ms",
            Some(run.aux.len()),
        ),
        metric(
            "setup_s",
            run.setup.adj.median(),
            "s",
            Some(run.setup.len()),
        ),
        metric("peak_rss_mib", rss, "MiB", None),
    ]
}

/// The end-to-end metrics under the names each workload gives them.
fn named(workload: &str, run: &Run, rss: f64) -> Vec<Metric> {
    let (op, aux, setup) = (&run.op.raw, &run.aux.raw, &run.setup.raw);
    let tail = |s: &Samples, stem: &str, unit: &'static str, scale: f64| match s.tail() {
        Some((p, v)) => metric(&format!("{stem}_p{p}"), v * scale, unit, Some(s.len())),
        None => metric(
            &format!("{stem}_max"),
            s.quantile(1.0) * scale,
            unit,
            Some(s.len()),
        ),
    };
    let mut out = match workload {
        "kv-put" => vec![
            metric("put_ms_p50", op.median(), "ms", Some(op.len())),
            metric("put_ms_p90", op.quantile(0.9), "ms", Some(op.len())),
            tail(op, "put_ms", "ms", 1.0),
            metric("get_us_p50", aux.median() * 1e3, "us", Some(aux.len())),
            tail(aux, "get_us", "us", 1e3),
        ],
        "migrate-64m" => vec![
            metric(
                "migrate_mib_s",
                run.state_bytes as f64 / (1024.0 * 1024.0) / (op.median() / 1e3),
                "MiB/s",
                Some(op.len()),
            ),
            metric("migrate_ms_p50", op.median(), "ms", Some(op.len())),
            metric("load_ms_p50", aux.median(), "ms", Some(aux.len())),
        ],
        "migrate-small" => vec![
            metric("migrate_ms_p50", op.median(), "ms", Some(op.len())),
            metric("migrate_ms_p99", op.quantile(0.99), "ms", Some(op.len())),
            tail(op, "migrate_ms", "ms", 1.0),
            metric("deploy_ms_p50", aux.median(), "ms", Some(aux.len())),
        ],
        _ => vec![
            metric("hop_ms_p50", op.median(), "ms", Some(op.len())),
            tail(op, "hop_ms", "ms", 1.0),
            metric("load_ms_p50", aux.median(), "ms", Some(aux.len())),
        ],
    };
    // A tail that is already listed under its own name prints once.
    let mut seen = std::collections::BTreeSet::new();
    out.retain(|m| seen.insert(m.name.clone()));
    out.push(metric("setup_s", setup.median(), "s", Some(setup.len())));
    out.push(metric("peak_rss_mib", rss, "MiB", None));
    out.push(metric(
        "error_rate",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        Some(run.attempted as usize),
    ));
    out
}

fn report_errors(run: &Run) {
    for e in &run.errors {
        eprintln!("error: {e}");
    }
}

/// A run of `secs` seconds from now, set-up included, of at most
/// `max_ops` operations.
fn config(args: &Args, secs: f64, max_ops: usize, traced: bool) -> Config {
    Config {
        seed: args.seed,
        until: Instant::now() + Duration::from_secs_f64(secs),
        max_ops,
        traced,
    }
}

fn untraced(args: &Args, workload: Workload) -> bool {
    let run = workload(&config(args, args.seconds as f64, usize::MAX, false));
    let rss = peak_rss_mib();
    report_errors(&run);
    print_lines(
        &format!("{} (seed {}, tracing off)", args.workload, args.seed),
        &named(&args.workload, &run, rss),
    );
    let gated = end_to_end(&run, rss);
    print_lines(
        &format!(
            "gated metrics (measured op adjusted by x{:.3} at the median)",
            run.op.adj.median() / run.op.raw.median()
        ),
        &gated,
    );
    let correct = run.failed == 0;
    println!(
        "{}",
        result_json(correct, run.attempted, run.failed, &gated)
    );
    correct
}

/// MiB/s of `f` over `bytes`, repeated until 0.2 s have passed.
fn rate(bytes: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t.elapsed() < Duration::from_millis(200) {
        f();
        passes += 1;
    }
    bytes as f64 * f64::from(passes) / (1024.0 * 1024.0) / t.elapsed().as_secs_f64()
}

/// Seal, open and SHA-256 rates of the public crypto kernels on the
/// workload's own staged state.
fn kernel_rates(state: &[u8]) -> [f64; 3] {
    use sgx_migrate::crypto::gcm::AesGcm;
    use sgx_migrate::crypto::sha256::sha256;
    use std::hint::black_box;
    let gcm = AesGcm::new([0x42; 16]);
    let nonce = [7u8; 12];
    let mut sealed = Vec::with_capacity(state.len() + 16);
    let seal = rate(state.len(), || {
        sealed.clear();
        gcm.seal_into(&nonce, b"", black_box(state), &mut sealed);
    });
    let open = rate(state.len(), || {
        black_box(
            gcm.open(&nonce, b"", black_box(&sealed))
                .expect("own seal opens"),
        );
    });
    let sha = rate(state.len(), || {
        black_box(sha256(black_box(state)));
    });
    [seal, open, sha]
}

/// The traced run: half the time untraced, half traced (the difference
/// is the tracing overhead), then a same-seed replay of the first traced
/// operations whose deterministic counts must repeat exactly.
fn traced(args: &Args, workload: Workload, replay_ops: usize) -> bool {
    let half = args.seconds as f64 / 2.0;
    let plain = workload(&config(args, half, usize::MAX, false));
    let run = workload(&config(args, half, usize::MAX, true));
    let replay = workload(&config(args, half, replay_ops, true));
    for r in [&plain, &run, &replay] {
        report_errors(r);
    }

    let k = replay.counts.len().min(run.counts.len());
    let repeat_ok = k > 0 && replay.counts[..k] == run.counts[..k];
    if !repeat_ok {
        eprintln!("error: deterministic counts differ between two same-seed traced runs");
        for (a, b) in run.counts.iter().zip(&replay.counts).take(k) {
            if a != b {
                eprintln!("  first run {a:?}\n  replay    {b:?}");
                break;
            }
        }
    }

    let mean = |name: &str| run.layer.get(name).map_or(0.0, Samples::mean);
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, mean(n))).collect();
    let [seal, open, sha] = kernel_rates(&run.state);
    values.insert("crypto.seal_mib_s", seal);
    values.insert("crypto.open_mib_s", open);
    values.insert("crypto.sha256_mib_s", sha);
    let ops = run.op.len().max(1) as f64;
    let self_ms = run.spans.self_ms_by_layer();
    for (layer, name) in SELF_LAYERS {
        values.insert(name, self_ms.get(layer).copied().unwrap_or(0.0) / ops);
    }
    values.insert(
        "trace.overhead_op_ms_p50",
        run.op.adj.median() - plain.op.adj.median(),
    );

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            metric(
                name,
                values[name],
                unit,
                run.layer.get(name).map(Samples::len),
            )
        })
        .collect();
    let spans = PathBuf::from(".bench_build")
        .join("spans")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    match run.spans.write_json(&spans) {
        Ok(()) => println!("spans written to {}", spans.display()),
        Err(e) => eprintln!("could not write {}: {e}", spans.display()),
    }
    print_lines(
        &format!("{} (seed {}, untraced half)", args.workload, args.seed),
        &named(&args.workload, &plain, peak_rss_mib()),
    );
    print_lines(
        &format!("{} (seed {}, traced half)", args.workload, args.seed),
        &named(&args.workload, &run, 0.0),
    );
    print_lines(
        &format!("{} per layer (means per operation)", args.workload),
        &metrics,
    );
    println!(
        "deterministic counts: {} of {k} replayed operations identical",
        if repeat_ok { "all" } else { "NOT all" }
    );

    let attempted = plain.attempted + run.attempted + replay.attempted;
    let failed = plain.failed + run.failed + replay.failed;
    let correct = failed == 0 && repeat_ok;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    correct
}

/// Runs every workload in its own process, one after another.
fn all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut bodies = Vec::new();
    for (name, ..) in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        correct &= out.status.success();
        let field = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|d| d.parse::<u64>().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let body = last
            .split_once("\"metrics\": ")
            .map_or("{}", |(_, m)| m.strip_suffix('}').unwrap_or(m));
        bodies.push(format!("\"{name}\": {body}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        bodies.join(", ")
    );
    correct
}

/// Set in the re-executed, pinned copy of the benchmark.
const PINNED_ENV: &str = "E2E_BENCH_PINNED";

/// Re-runs the benchmark pinned to the first CPU this process may use,
/// through `taskset`, and returns its exit code. The two vCPUs of a
/// shared sandbox can differ in speed by a fifth, and an unpinned run
/// lands on either, so pinning takes that choice out of the spread.
/// Returns `None` (run unpinned, in this process) when already pinned
/// or when `taskset` cannot be started.
fn run_pinned() -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed
        .trim()
        .split([',', '-'])
        .next()
        .and_then(|c| c.parse().ok())?;
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

fn main() {
    if let Some(code) = run_pinned() {
        std::process::exit(code);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <kv-put|migrate-64m|migrate-small|migrate-repeat|all> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let ok = if args.workload == "all" {
        all(&args)
    } else {
        let &(_, workload, replay_ops) = WORKLOADS
            .iter()
            .find(|w| w.0 == args.workload)
            .expect("validated workload");
        if args.trace {
            traced(&args, workload, replay_ops)
        } else {
            untraced(&args, workload)
        }
    };
    std::process::exit(i32::from(!ok));
}
