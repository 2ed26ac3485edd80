//! `exp_harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! exp_harness [exp1|table12|exp2|exp3|exp4|table13|sharegen|shard|netmax|cache|stream|serve|hotpath|failover|all]
//!             [--scale small|medium|full] [--seed N]
//!             [--shard-json PATH] [--netmax-json PATH] [--cache-json PATH]
//!             [--stream-json PATH] [--serve-json PATH] [--hotpath-json PATH]
//!             [--failover-json PATH]
//! ```
//!
//! `small` (default) finishes in seconds; `medium` in minutes; `full`
//! runs the paper-scale parameters (5M/20M domains, 10–50 owners, the
//! 100M-leaf bucket tree) and needs a machine comparable to the paper's
//! servers (tens of GB of RAM, tens of minutes).
//!
//! `shard` sweeps shard counts {1, 2, 4, 8} over the fixed 1M-cell
//! config (whatever the scale) and writes the `BENCH_shard.json`
//! artifact CI publishes. `netmax` smoke-runs max/median over the
//! networked deployment (channel + TCP, announcer as a fourth node) and
//! writes `BENCH_netmax.json`. `cache` measures repeat-query latency
//! through the cross-query PSI-round cache (asserting the warm passes
//! actually hit) and writes `BENCH_cache.json`. `stream` runs the
//! streaming-append sweep (hourly delta uploads, asserting every warm
//! windowed re-check replays both rounds from the cache) and writes
//! `BENCH_stream.json`. `serve` drives the
//! session multiplexer with N ∈ {1, 4, 16} concurrent query streams over
//! one cluster (same total work per row, so N = 1 is the serial
//! baseline), records per-query p50/p99 latency and queries/sec, and
//! writes `BENCH_serve.json`. `hotpath` times five per-row kernels
//! against their baselines (the retained Vec-returning forms, or the
//! generic `u128 %` arithmetic for the Shamir field kernels), counting
//! heap allocations per warm call through the binary's counting
//! allocator, and writes `BENCH_hotpath.json`. `failover` brings up the
//! elastic TCP deployment (registry + attaching workers), kills a shard
//! worker mid-sweep, times the self-heal, asserts the healed answers are
//! identical to the pre-kill answers, and writes `BENCH_failover.json`.

use prism_bench::{
    cacheexp, exp1, exp2, exp3, exp4, failoverexp, hotpathexp, netmax, serveexp, shardexp,
    sharegen, streamexp, table13,
};
use prism_workload::configs::{self, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator behind an allocation counter, so the `hotpath`
/// experiment can report heap allocations per warm kernel call. The
/// counter only ever increments; readers diff two snapshots.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter bump has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Args {
    which: Vec<String>,
    scale: Scale,
    seed: u64,
    shard_json: std::path::PathBuf,
    netmax_json: std::path::PathBuf,
    cache_json: std::path::PathBuf,
    stream_json: std::path::PathBuf,
    serve_json: std::path::PathBuf,
    hotpath_json: std::path::PathBuf,
    failover_json: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut which = Vec::new();
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut shard_json = std::path::PathBuf::from("BENCH_shard.json");
    let mut netmax_json = std::path::PathBuf::from("BENCH_netmax.json");
    let mut cache_json = std::path::PathBuf::from("BENCH_cache.json");
    let mut stream_json = std::path::PathBuf::from("BENCH_stream.json");
    let mut serve_json = std::path::PathBuf::from("BENCH_serve.json");
    let mut hotpath_json = std::path::PathBuf::from("BENCH_hotpath.json");
    let mut failover_json = std::path::PathBuf::from("BENCH_failover.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (small|medium|full)");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--shard-json" => {
                shard_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--shard-json needs a path");
                    std::process::exit(2);
                });
            }
            "--netmax-json" => {
                netmax_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--netmax-json needs a path");
                    std::process::exit(2);
                });
            }
            "--cache-json" => {
                cache_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--cache-json needs a path");
                    std::process::exit(2);
                });
            }
            "--stream-json" => {
                stream_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--stream-json needs a path");
                    std::process::exit(2);
                });
            }
            "--serve-json" => {
                serve_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--serve-json needs a path");
                    std::process::exit(2);
                });
            }
            "--hotpath-json" => {
                hotpath_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--hotpath-json needs a path");
                    std::process::exit(2);
                });
            }
            "--failover-json" => {
                failover_json = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--failover-json needs a path");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: exp_harness \
                     [exp1|table12|exp2|exp3|exp4|table13|sharegen|shard|netmax|cache|stream|serve|hotpath|failover|all]* \
                     [--scale small|medium|full] [--seed N] [--shard-json PATH] \
                     [--netmax-json PATH] [--cache-json PATH] [--stream-json PATH] \
                     [--serve-json PATH] [--hotpath-json PATH] [--failover-json PATH]"
                );
                std::process::exit(0);
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    Args {
        which,
        scale,
        seed,
        shard_json,
        netmax_json,
        cache_json,
        stream_json,
        serve_json,
        hotpath_json,
        failover_json,
    }
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    let seed = args.seed;
    let all = args.which.iter().any(|w| w == "all");
    let wants = |name: &str| all || args.which.iter().any(|w| w == name);

    println!("PRISM experiment harness — scale {:?}, seed {seed}", scale);

    if wants("exp1") {
        let cfg = configs::exp1(scale);
        let rows = exp1::run(&cfg.domains, &cfg.threads, cfg.owners, seed);
        exp1::print(&rows);
    }
    if wants("table12") {
        let cfg = configs::exp1(scale);
        let rows = exp1::run_table12(&cfg.domains, &configs::table12_attrs(), cfg.owners, 4, seed);
        exp1::print_table12(&rows);
    }
    if wants("exp2") {
        let cfg = configs::exp2(scale);
        let rows = exp2::run(&cfg.domains, &cfg.owners, cfg.threads, seed);
        exp2::print(&rows);
    }
    if wants("exp3") {
        let domains = configs::ok_domains(scale);
        // The paper used 50 owners for Table 14.
        let owners = if scale == Scale::Full { 50 } else { 10 };
        let rows = exp3::run(&domains, owners, 4, seed);
        exp3::print(&rows);
    }
    if wants("exp4") {
        let cfg = configs::exp4(scale);
        let rows = exp4::run(cfg.height, cfg.fanout, &cfg.fill_percent, seed);
        exp4::print(&rows);
    }
    if wants("table13") {
        let sizes = configs::table13_sizes(scale);
        let rows = table13::run(&sizes, 4, seed);
        table13::print(&rows);
    }
    if wants("sharegen") {
        let domains = configs::ok_domains(scale);
        let rows = sharegen::run(&domains, 10, seed);
        sharegen::print(&rows);
    }
    if wants("shard") {
        let (domain, owners, reps) = configs::shard_bench();
        let rows = shardexp::run(domain, owners, &configs::shard_counts(), reps, seed);
        shardexp::print(domain, owners, &rows);
        match shardexp::write_json(&args.shard_json, domain, owners, &rows) {
            Ok(()) => println!("wrote {}", args.shard_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.shard_json.display()),
        }
    }
    if wants("cache") {
        let (domain, owners, warm_reps) = configs::cache_bench();
        let sweep = cacheexp::run(domain, owners, warm_reps, seed);
        cacheexp::print(domain, owners, &sweep);
        match cacheexp::write_json(&args.cache_json, domain, owners, &sweep) {
            Ok(()) => println!("wrote {}", args.cache_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.cache_json.display()),
        }
    }
    if wants("stream") {
        let (domain, added, hours, owners) = configs::stream_bench();
        let sweep = streamexp::run(domain, added, hours, owners, seed);
        streamexp::print(domain, added, owners, &sweep);
        match streamexp::write_json(&args.stream_json, domain, added, owners, &sweep) {
            Ok(()) => println!("wrote {}", args.stream_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.stream_json.display()),
        }
    }
    if wants("netmax") {
        let (domain, owners) = configs::netmax_bench();
        let rows = netmax::run(domain, owners, 2, seed);
        netmax::print(domain, owners, &rows);
        match netmax::write_json(&args.netmax_json, domain, owners, &rows) {
            Ok(()) => println!("wrote {}", args.netmax_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.netmax_json.display()),
        }
    }
    if wants("hotpath") {
        let (cells, owners, reps) = configs::hotpath_bench();
        let rows = hotpathexp::run(cells, owners, reps, seed, Some(allocation_count));
        hotpathexp::print(cells, owners, &rows);
        match hotpathexp::write_json(&args.hotpath_json, cells, owners, &rows) {
            Ok(()) => println!("wrote {}", args.hotpath_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.hotpath_json.display()),
        }
    }
    if wants("failover") {
        let (domain, owners, shards) = configs::failover_bench();
        let sweeps = failoverexp::run_all(domain, owners, shards, seed);
        for sweep in &sweeps {
            failoverexp::print(domain, owners, shards, sweep);
        }
        match failoverexp::write_json(&args.failover_json, domain, owners, shards, &sweeps) {
            Ok(()) => println!("wrote {}", args.failover_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.failover_json.display()),
        }
    }
    if wants("serve") {
        let (domain, owners, streams, total_queries) = configs::serve_bench();
        let rows = serveexp::run(domain, owners, &streams, total_queries, seed);
        serveexp::print(domain, owners, &rows);
        match serveexp::write_json(&args.serve_json, domain, owners, &rows) {
            Ok(()) => println!("wrote {}", args.serve_json.display()),
            Err(e) => eprintln!("could not write {}: {e}", args.serve_json.display()),
        }
    }
}
