//! `cache_append`: writes beside reads over the PSI-round cache.
//!
//! In-process `driver::Cluster`, LineItem data over 250K cells, 4
//! owners, cache on, one closed-loop client. Each cycle appends a small
//! delta (`Cluster::append`), re-queries three fixed windows of the
//! original domain (warm hits) and queries one window ending at the
//! newest row (always a miss). Cache lookup, range-version probes and
//! the delta-upload path dominate; the server kernels are nearly idle.
//! Entries are never evicted, so cache size and RSS grow with every
//! cycle — the benchmark reports that growth as it stands.

use crate::data::{OwnerData, AGG_DOMAIN_MAX};
use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{Args, QueryLog};
use prism_protocol::driver::{Cluster, ClusterConfig};
use prism_protocol::QueryBatch;
use std::time::{Duration, Instant};

const DOMAIN: usize = 250_000;
const OWNERS: usize = 4;
const FRACTION: f64 = 0.9;
/// Cells appended per cycle.
const ADDED: usize = 2_000;
/// Length of every queried window.
const WINDOW: usize = 50_000;
/// Fixed windows over the original domain (start cells).
const FIXED: [usize; 3] = [0, 100_000, 200_000];
/// Append-and-query cycles per cluster build. Fixed, so the cache size
/// and RSS a build reaches do not depend on machine speed.
const CYCLES: usize = 40;
/// Fewest cluster builds per run (`setup_s` is their median).
const MIN_EPISODES: usize = 3;

pub fn run(args: &Args, r: &mut Report) {
    let base = OwnerData::lineitem(DOMAIN, OWNERS, FRACTION, args.seed);
    let inputs = base.inputs(0);
    let fixed: Vec<_> = FIXED
        .iter()
        .map(|&s| (s, base.expected(s, WINDOW)))
        .collect();
    r.info("domain", DOMAIN);
    r.info("owners", OWNERS);
    r.info("clients", 1);
    r.info("appended_cells_per_cycle", ADDED);
    r.info("window_cells", WINDOW);
    r.info("cycles_per_build", CYCLES);

    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let tracer = Tracer::default();
    let mut log = QueryLog::default();
    let (mut setups, mut appends, mut entries) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hit_walls, mut miss_walls) = (Vec::new(), Vec::new());
    let mut measured = Duration::ZERO;
    let mut episode = 0u64;
    while episode < MIN_EPISODES as u64 || measured.as_secs_f64() < args.seconds {
        let mut cfg = ClusterConfig::new(DOMAIN).with_cache(true);
        cfg.seed = args.seed ^ (episode << 32);
        cfg.with_verification = false;
        cfg.agg_domain_max = AGG_DOMAIN_MAX;
        let t0 = Instant::now();
        let mut cluster = match Cluster::build(&inputs, cfg) {
            Ok(c) => c,
            Err(e) => {
                r.outcome("build", Err(e.to_string()));
                return;
            }
        };
        setups.push(t0.elapsed());
        let mut data = base.clone();

        for cycle in 0..CYCLES {
            // In a traced run every other cycle is traced, so both halves
            // see the same cache states.
            let traced = args.trace && cycle % 2 == 1;
            let delta_seed = args.seed ^ (episode << 40) ^ (cycle as u64 + 1);
            let delta = data.delta(ADDED, FRACTION, delta_seed);
            let delta_inputs = delta.inputs(data.domain());
            let newest = data.domain() + ADDED - WINDOW;
            data.extend(&delta);
            let newest_expected = data.expected(newest, WINDOW);

            let cycle_start = Instant::now();
            let t0 = Instant::now();
            let appended = cluster.append(ADDED, &delta_inputs);
            let wall = t0.elapsed();
            if traced {
                tracer.record("append", t0, t0 + wall, None);
            }
            r.outcome("append", appended.map_err(|e| e.to_string()));
            if !traced {
                appends.push(wall);
            }

            let windows = fixed
                .iter()
                .map(|(s, e)| (*s, e))
                .chain(std::iter::once((newest, &newest_expected)));
            for (start, expected) in windows {
                let t0 = Instant::now();
                let out = cluster.psi_query_batch_range(&batch, (start as u64, WINDOW as u64));
                let wall = t0.elapsed();
                if traced {
                    tracer.record("query", t0, t0 + wall, None);
                }
                match out {
                    Ok((res, stats)) => {
                        r.outcome("window batch", expected.check_batch(&res));
                        log.push(wall, stats, traced);
                        if stats.rounds() == 0 {
                            hit_walls.push(wall);
                        } else {
                            miss_walls.push(wall);
                        }
                    }
                    Err(e) => r.outcome("window batch", Err(e.to_string())),
                }
            }
            let busy = cycle_start.elapsed();
            measured += busy;
            if !traced {
                log.untraced_busy += busy;
            }
        }
        entries.push(cluster.cache().map_or(0, |c| c.len()));
        episode += 1;
    }

    r.info("builds", episode);
    r.metric("setup_s", median(&setups, 1.0), "s");
    log.end_to_end(r);
    r.latency("append", &appends);
    log.layers(r);
    r.metric("cache.hit_query_ms", median(&hit_walls, 1e3), "ms");
    r.metric("cache.miss_query_ms", median(&miss_walls, 1e3), "ms");
    entries.sort_unstable();
    r.metric("cache.entries", entries[entries.len() / 2] as f64, "count");
    crate::no_links(r);
    tracer.summarize("query", layer_of, r);
    if args.trace {
        crate::write_spans(&tracer, args, r);
    }
}

fn layer_of(span: &str) -> &'static str {
    match span {
        "append" => "outsource",
        _ => "engine",
    }
}
