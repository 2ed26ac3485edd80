//! PRISM benchmark: runs one workload against the public deployment APIs
//! (`prism_protocol::driver::Cluster`, `prism_net::NetCluster`), checks
//! every answer against a plaintext computation, and prints its metrics.
//!
//! ```text
//! perfbench --workload <cold_agg|cache_append|serve_mix|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (names as in
//! `BENCHMARK.json`). The line before it carries every metric the run
//! measured, including the workload-specific ones, and the run facts
//! (seed, `nproc`, sizes, clients, sample counts). See `METRICS.md`.

mod cache_append;
mod cold_agg;
mod data;
mod report;
mod serve_mix;
mod trace;

use prism_protocol::QueryStats;
use report::{json_metrics, json_str, median, Report};
use std::time::Duration;

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`, in order).
const END_TO_END: &[&str] = &[
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "queries_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics every workload reports (`BENCHMARK.json`
/// `per_layer`, in order).
const PER_LAYER: &[&str] = &[
    "engine.owner_ms",
    "engine.server_ms",
    "engine.unattributed_ms",
    "engine.rounds",
    "cache.hits",
    "cache.misses",
    "cache.invalidations",
    "cache.hit_ratio",
    "cache.entries",
    "shard.dispatches",
    "net.owner_link_bytes",
    "net.shard_link_bytes",
    "net.announcer_bytes",
    "net.rejected_replies",
    "registry.failovers",
    "outsource.upload_bytes",
    "trace.child_coverage",
];

/// Fewest queries behind an end-to-end latency percentile: with 100,
/// at least 10 lie beyond the p90.
pub const MIN_SAMPLES: usize = 100;

const WORKLOADS: &[&str] = &["cold_agg", "cache_append", "serve_mix"];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    // A query that never returns (a hung link, a deadlocked lock) must
    // not hang the run: give up without a result line.
    let limit = Duration::from_secs_f64((3.0 * args.seconds + 60.0).max(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    let mut r = Report::default();
    r.info("workload", &args.workload);
    r.info("seed", args.seed);
    r.info("seconds", args.seconds);
    r.info("trace", u8::from(args.trace));
    r.info(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match args.workload.as_str() {
        "cold_agg" => cold_agg::run(&args, &mut r),
        "cache_append" => cache_append::run(&args, &mut r),
        "serve_mix" => serve_mix::run(&args, &mut r),
        w => {
            eprintln!("perfbench: unknown workload {w:?} (one of {WORKLOADS:?} or all)");
            std::process::exit(2);
        }
    }
    r.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    r.metric(
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    print_result(&args, &r);
}

/// Print failures, the full metric line, and the final result line.
fn print_result(args: &Args, r: &Report) {
    for f in &r.failures {
        println!("FAILED {f}");
    }
    let info: Vec<String> = r
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"info\": {{{}}}, \"all_metrics\": {}}}",
        info.join(", "),
        json_metrics(r.metrics.iter())
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let picked: Vec<&report::Metric> = names
        .iter()
        .map(|n| {
            r.get(n)
                .unwrap_or_else(|| panic!("workload did not report {n}"))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        json_metrics(picked.into_iter())
    );
}

/// Run every workload, each in its own process so peak RSS stays per
/// workload; prints each workload's lines and a combined last line.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own path");
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn workload");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Some(last) = text.lines().last().filter(|_| out.status.success()) else {
            eprintln!("perfbench: workload {w} failed");
            return 1;
        };
        let field = |key: &str| -> &str {
            let at = last.find(key).map_or(last.len(), |i| i + key.len());
            let rest = &last[at..];
            &rest[..rest.find(',').unwrap_or(rest.len())]
        };
        correct &= field("\"correct\": ") == "true";
        attempted += field("\"attempted\": ").parse::<u64>().unwrap_or(0);
        failed += field("\"failed\": ").parse::<u64>().unwrap_or(0);
        // Entries look like `"name": {"value": v, "unit": "u"}`; prefix
        // each name with its workload.
        let body = last.split_once("\"metrics\": {").map_or("", |(_, b)| b);
        for entry in body.split("}, ") {
            let entry = entry.trim_end_matches('}');
            if let Some((name, rest)) = entry.split_once(": {") {
                merged.push(format!("\"{w}.{}\": {{{rest}}}", name.trim_matches('"')));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        merged.join(", ")
    );
    0
}

/// Per-query wall times and engine accounting for one run.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// `(wall, stats, traced)` of every measured query.
    pub queries: Vec<(Duration, QueryStats, bool)>,
    /// Untraced query walls (the end-to-end latency sample).
    pub untraced: Vec<Duration>,
    /// Traced query walls.
    pub traced: Vec<Duration>,
    /// Wall time the untraced measurement loops ran for.
    pub untraced_busy: Duration,
}

impl QueryLog {
    pub fn push(&mut self, wall: Duration, stats: QueryStats, traced: bool) {
        self.queries.push((wall, stats, traced));
        if traced {
            self.traced.push(wall);
        } else {
            self.untraced.push(wall);
        }
    }

    /// End-to-end latency and throughput from the untraced queries.
    pub fn end_to_end(&self, r: &mut Report) {
        r.latency("query", &self.untraced);
        r.metric(
            "queries_per_s",
            self.untraced.len() as f64 / self.untraced_busy.as_secs_f64().max(1e-12),
            "1/s",
        );
    }

    /// Engine and cache accounting from `QueryStats` of the untraced
    /// queries (the traced ones' walls include the tracing), and the
    /// tracing overhead when both halves were measured.
    pub fn layers(&self, r: &mut Report) {
        let any_untraced = !self.untraced.is_empty();
        let q: Vec<(Duration, QueryStats)> = self
            .queries
            .iter()
            .filter(|&&(_, _, traced)| !traced || !any_untraced)
            .map(|&(w, s, _)| (w, s))
            .collect();
        let med = |f: &dyn Fn(&(Duration, QueryStats)) -> Duration| {
            median(&q.iter().map(f).collect::<Vec<_>>(), 1e3)
        };
        r.metric("engine.owner_ms", med(&|(_, s)| s.owner_time()), "ms");
        r.metric("engine.server_ms", med(&|(_, s)| s.server_time()), "ms");
        r.metric(
            "engine.announcer_ms",
            med(&|(_, s)| s.announcer_time()),
            "ms",
        );
        r.metric(
            "engine.unattributed_ms",
            med(&|(w, s)| w.saturating_sub(s.owner_time() + s.server_time() + s.announcer_time())),
            "ms",
        );
        let counts =
            |f: &dyn Fn(&QueryStats) -> u64| -> Vec<u64> { q.iter().map(|(_, s)| f(s)).collect() };
        let med_count = |v: Vec<u64>| {
            let mut v = v;
            v.sort_unstable();
            v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0) as f64
        };
        r.metric(
            "engine.rounds",
            med_count(counts(&|s| s.rounds() as u64)),
            "count",
        );
        r.metric(
            "shard.dispatches",
            med_count(counts(&|s| s.shard_dispatches())),
            "count",
        );
        let hits: u64 = counts(&|s| s.cache_hits()).iter().sum();
        let misses: u64 = counts(&|s| s.cache_misses()).iter().sum();
        let inval: u64 = counts(&|s| s.cache_invalidations()).iter().sum();
        r.metric("cache.hits", hits as f64, "count");
        r.metric("cache.misses", misses as f64, "count");
        r.metric("cache.invalidations", inval as f64, "count");
        r.metric(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        if !self.traced.is_empty() && !self.untraced.is_empty() {
            r.metric(
                "trace.overhead_ms",
                median(&self.traced, 1e3) - median(&self.untraced, 1e3),
                "ms",
            );
        }
    }
}

/// The link, registry and upload-path metrics of an in-process cluster:
/// it has none of those layers, so each reads 0.
pub fn no_links(r: &mut Report) {
    for name in [
        "net.owner_link_bytes",
        "net.shard_link_bytes",
        "net.announcer_bytes",
        "outsource.upload_bytes",
    ] {
        r.metric(name, 0.0, "B");
    }
    r.metric("net.rejected_replies", 0.0, "count");
    r.metric("registry.failovers", 0.0, "count");
}

/// Write the run's spans to `out/spans-<workload>-<seed>.jsonl` in the
/// benchmark's directory.
pub fn write_spans(tracer: &trace::Tracer, args: &Args, r: &mut Report) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => r.info("spans_file", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
