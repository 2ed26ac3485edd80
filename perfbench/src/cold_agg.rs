//! `cold_agg`: the paper's headline aggregation at the baseline scale.
//!
//! In-process `driver::Cluster`, LineItem data over 500K cells, 4 owners,
//! one aggregation attribute, no verification columns, cache off,
//! `threads = 1`, one closed-loop client. Every query is
//! `psi_query_batch(sum, avg, count)`: PSI then one batched round 2.
//! Owner-side and server-kernel work dominate; cache and wire are
//! bypassed.

use crate::data::{OwnerData, AGG_DOMAIN_MAX};
use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{Args, QueryLog, MIN_SAMPLES};
use prism_protocol::driver::{Cluster, ClusterConfig};
use prism_protocol::QueryBatch;
use std::time::{Duration, Instant};

const DOMAIN: usize = 500_000;
const OWNERS: usize = 4;
const FRACTION: f64 = 0.9;
/// One server thread: on a 2-vCPU host the second core is shared with
/// the host's other work, and `threads = 2` more than doubled the run-to-run
/// spread for a few percent of speed.
const THREADS: usize = 1;
/// Cluster builds per run: `setup_s` is their median, and each build
/// serves an equal share of the measured time.
const EPISODES: usize = 3;

pub fn run(args: &Args, r: &mut Report) {
    let data = OwnerData::lineitem(DOMAIN, OWNERS, FRACTION, args.seed);
    let inputs = data.inputs(0);
    let expected = data.expected(0, DOMAIN);
    r.info("domain", DOMAIN);
    r.info("owners", OWNERS);
    r.info("threads", THREADS);
    r.info("clients", 1);
    r.info("common_cells", expected.common.len());

    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let tracer = Tracer::default();
    let mut log = QueryLog::default();
    let mut setups = Vec::new();
    let slice = Duration::from_secs_f64(args.seconds / EPISODES as f64);
    for episode in 0..EPISODES {
        let mut cfg = ClusterConfig::new(DOMAIN).with_cache(false);
        cfg.seed = args.seed ^ ((episode as u64) << 32);
        cfg.threads = THREADS;
        cfg.with_verification = false;
        cfg.agg_domain_max = AGG_DOMAIN_MAX;
        let t0 = Instant::now();
        let cluster = match Cluster::build(&inputs, cfg) {
            Ok(c) => c,
            Err(e) => {
                r.outcome("build", Err(e.to_string()));
                return;
            }
        };
        setups.push(t0.elapsed());

        let query = |traced: bool, r: &mut Report| {
            let t0 = Instant::now();
            let out = cluster.psi_query_batch(&batch);
            let wall = t0.elapsed();
            if traced {
                tracer.record("query", t0, t0 + wall, None);
            }
            match out {
                Ok((res, stats)) => {
                    r.outcome("batch", expected.check_batch(&res));
                    Some((wall, stats))
                }
                Err(e) => {
                    r.outcome("batch", Err(e.to_string()));
                    None
                }
            }
        };
        // The first query after a build pays page faults; check it, do
        // not time it.
        query(false, r);
        let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in halves {
            let budget = slice / halves.len() as u32;
            // On a slow machine the last untraced slice runs on (by at
            // most half a slice) until the latency sample holds
            // MIN_SAMPLES queries, so ≥ 10 lie beyond its p90.
            let top_up = !args.trace && episode + 1 == EPISODES;
            let t0 = Instant::now();
            while t0.elapsed() < budget
                || (top_up && log.untraced.len() < MIN_SAMPLES && t0.elapsed() < budget * 3 / 2)
            {
                if let Some((wall, stats)) = query(traced, r) {
                    log.push(wall, stats, traced);
                }
            }
            if !traced {
                log.untraced_busy += t0.elapsed();
            }
        }
        drop(cluster);
    }

    r.metric("setup_s", median(&setups, 1.0), "s");
    log.end_to_end(r);
    log.layers(r);
    r.metric("cache.entries", 0.0, "count");
    crate::no_links(r);
    tracer.summarize("query", layer_of, r);
    if args.trace {
        crate::write_spans(&tracer, args, r);
    }
}

fn layer_of(span: &str) -> &'static str {
    match span {
        "query" => "engine",
        _ => "other",
    }
}
