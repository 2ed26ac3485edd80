//! `serve_mix`: the elastic TCP deployment under two closed-loop clients.
//!
//! `ClusterListener` + `ShardWorker`s + `AnnouncerNode` on loopback,
//! 2 row ranges per server domain at replication factor 2, the prober at
//! its default interval. 100K cells, 4 owners with partially overlapping
//! sets, verification and aggregation columns, cache off. Two client
//! streams (`execute_as`) each run a fixed cyclic mix of batch,
//! verified PSI, verified PSU, verified count and max. The only workload
//! that crosses the wire, the mux, the replicated router, the upload log
//! and the announcer.

use crate::data::{Expected, OwnerData, AGG_DOMAIN_MAX};
use crate::report::{median, ms, Report};
use crate::trace::Tracer;
use crate::{Args, QueryLog};
use prism_baseline::PlainDataset;
use prism_core::Prg;
use prism_net::{
    AnnouncerNode, ClusterListener, Column, Message, NetCluster, NetReport, RegistryConfig,
    ShardWorker,
};
use prism_protocol::engine::{
    AnnouncerCmd, AnnouncerReply, Engine, ExecMeters, RoundOutcome, ServerCmd, ServerReply,
};
use prism_protocol::params::{Initiator, OwnerParams, SystemConfig};
use prism_protocol::tables::{share_indicator, share_payload};
use prism_protocol::{plans, Operation, QueryBatch, QueryStats, ServerExec};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DOMAIN: usize = 100_000;
const OWNERS: usize = 4;
const FRACTION: f64 = 0.5;
const RANGES: usize = 2;
const RF: usize = 2;
const CLIENTS: usize = 2;
const THREADS: usize = 1;
/// Bring-ups per run: `setup_s` is their median, and each serves an
/// equal share of the measured time.
const EPISODES: usize = 3;
const OPS: [&str; 5] = [
    "batch",
    "psi_verified",
    "psu_verified",
    "count_verified",
    "max",
];

/// Pause between the last attach and `ClusterListener::start`. `start`
/// polls the domains with two overlapping read guards
/// (`d.read().workers.len() >= d.read().target`); if an attach's re-fan
/// queues for the write lock between the two, the writer-preferring lock
/// deadlocks. Attaches re-fan after their ack, so the pause lets every
/// re-fan finish before `start` polls.
const SETTLE: Duration = Duration::from_millis(200);

/// One finished operation of a client stream.
struct Sample {
    op: usize,
    wall: Duration,
    stats: QueryStats,
    traced: bool,
    /// Decorator time inside `round` / `announce` and the wire replay
    /// (traced only).
    round: Duration,
    announce: Duration,
    encode: Duration,
    decode: Duration,
}

pub fn run(args: &Args, r: &mut Report) {
    let data = OwnerData::lineitem(DOMAIN, OWNERS, FRACTION, args.seed);
    let expected = data.expected(0, DOMAIN);
    let plain = PlainDataset::new(data.plain_rows());
    let oracle_common: Vec<usize> = plain
        .intersection()
        .iter()
        .map(|&v| (v - 1) as usize)
        .collect();
    if oracle_common != expected.common || plain.union().len() != expected.union {
        r.fail("plaintext answers disagree with prism_baseline::plaintext".into());
    }
    r.info("domain", DOMAIN);
    r.info("owners", OWNERS);
    r.info("clients", CLIENTS);
    r.info("row_ranges", RANGES);
    r.info("replication", RF);
    r.info("common_cells", expected.common.len());
    r.info("union_cells", expected.union);

    let tracer = Tracer::default();
    let samples = Mutex::new(Vec::<Sample>::new());
    let (mut setups, mut shares, mut uploads, mut upload_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut measured, mut traffic) = (Duration::ZERO, [0u64; 3]);
    let (mut rejected, mut failovers) = (0u64, 0u64);
    let slice = Duration::from_secs_f64(args.seconds / EPISODES as f64);
    for episode in 0..EPISODES {
        let seed = args.seed ^ ((episode as u64) << 32);
        let t0 = Instant::now();
        let Some((dep, settle)) = Deployment::start(seed) else {
            r.outcome("bring-up", Err("cluster did not start".into()));
            return;
        };
        let before = dep.cluster.report();
        let t_share = Instant::now();
        let columns = share_columns(&data, &dep.cluster.setup().owner, seed);
        shares.push(t_share.elapsed());
        let t_upload = Instant::now();
        for (j, per_server) in columns.into_iter().enumerate() {
            for (k, cols) in per_server.into_iter().enumerate() {
                let res = dep.cluster.bulk_upload(k, j, cols);
                r.outcome("upload", res.map_err(|e| e.to_string()));
            }
        }
        uploads.push(t_upload.elapsed());
        setups.push(t0.elapsed() - settle);
        upload_bytes.push(
            link_bytes(&dep.cluster.report(), &before)
                .iter()
                .sum::<u64>(),
        );

        // One unmeasured pass of the mix, checked.
        for (op, name) in OPS.iter().enumerate() {
            let (res, _) = run_op(&dep.cluster, op, &data, seed, 0, None);
            r.outcome(name, res.and_then(|out| check(op, out, &expected, &data)));
        }
        let before = dep.cluster.report();
        let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in halves {
            let budget = slice / halves.len() as u32;
            let t0 = Instant::now();
            let failures: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let (dep, data, expected, tracer, samples) =
                            (&dep, &data, &expected, &tracer, &samples);
                        s.spawn(move || {
                            let mut op = client * 2 % OPS.len();
                            let mut failures = Vec::new();
                            while t0.elapsed() < budget {
                                let trace = traced.then_some(tracer);
                                let start = Instant::now();
                                let (res, sample) =
                                    run_op(&dep.cluster, op, data, seed, client as u32, trace);
                                let wall = start.elapsed();
                                let res = res.and_then(|out| check(op, out, expected, data));
                                match (res, sample) {
                                    (Ok(()), Some(mut sample)) => {
                                        sample.wall = wall;
                                        sample.traced = traced;
                                        samples.lock().expect("client panicked").push(sample);
                                    }
                                    (Ok(()), None) => {
                                        failures.push(format!("{}: no stats", OPS[op]))
                                    }
                                    (Err(e), _) => failures.push(format!("{}: {e}", OPS[op])),
                                }
                                op = (op + 1) % OPS.len();
                            }
                            failures
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client panicked"))
                    .collect()
            });
            for f in failures {
                r.outcome("mix", Err(f));
            }
            if !traced {
                measured += t0.elapsed();
            }
        }
        for (t, b) in traffic
            .iter_mut()
            .zip(link_bytes(&dep.cluster.report(), &before))
        {
            *t += b;
        }
        rejected += dep.cluster.rejected_replies();
        failovers += dep.cluster.registry().map_or(0, |reg| reg.failovers());
        dep.stop();
    }

    let samples = samples.into_inner().expect("client panicked");
    r.attempted += samples.len() as u64;
    for _ in 0..rejected + failovers {
        r.fail("rejected reply or failover".into());
    }

    r.metric("setup_s", median(&setups, 1.0), "s");
    r.metric("outsource.share_ms", median(&shares, 1e3), "ms");
    r.metric("outsource.upload_ms", median(&uploads, 1e3), "ms");
    upload_bytes.sort_unstable();
    r.metric(
        "outsource.upload_bytes",
        upload_bytes[upload_bytes.len() / 2] as f64,
        "B",
    );

    let mut log = QueryLog {
        untraced_busy: measured,
        ..QueryLog::default()
    };
    for s in &samples {
        log.push(s.wall, s.stats, s.traced);
    }
    // Two clients share the measured wall time.
    log.end_to_end(r);
    let queries = samples.len().max(1) as f64;
    let [owner, shard, announcer] = traffic.map(|b| b as f64 / queries);
    r.metric("bytes_per_query", owner + shard + announcer, "B");
    log.layers(r);
    r.metric("cache.entries", 0.0, "count");
    r.metric("net.owner_link_bytes", owner, "B");
    r.metric("net.shard_link_bytes", shard, "B");
    r.metric("net.announcer_bytes", announcer, "B");
    r.metric("net.rejected_replies", rejected as f64, "count");
    r.metric("registry.failovers", failovers as f64, "count");
    for (op, name) in OPS.iter().enumerate() {
        let walls: Vec<Duration> = samples
            .iter()
            .filter(|s| s.op == op && !s.traced)
            .map(|s| s.wall)
            .collect();
        r.metric(&format!("op.{name}.p50_ms"), median(&walls, 1e3), "ms");
        r.info(&format!("op.{name}.samples"), walls.len());
    }
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    if !traced.is_empty() {
        let per_query = |f: fn(&Sample) -> Duration| {
            traced.iter().map(|s| ms(f(s))).sum::<f64>() / traced.len() as f64
        };
        r.metric("net.round_ms", per_query(|s| s.round), "ms");
        r.metric("net.announce_ms", per_query(|s| s.announce), "ms");
        r.metric("wire.encode_ms", per_query(|s| s.encode), "ms");
        r.metric("wire.decode_ms", per_query(|s| s.decode), "ms");
        let self_times: Vec<Duration> = traced
            .iter()
            .map(|s| {
                s.wall
                    .saturating_sub(s.round + s.announce + s.encode + s.decode)
            })
            .collect();
        r.metric("engine.owner_self_ms", median(&self_times, 1e3), "ms");
    }
    tracer.summarize("query", layer_of, r);
    if args.trace {
        crate::write_spans(&tracer, args, r);
    }
}

fn layer_of(span: &str) -> &'static str {
    match span {
        "query" => "engine",
        "round" | "announce" => "net",
        _ => "wire",
    }
}

/// A running elastic deployment and the nodes attached to it.
struct Deployment {
    cluster: NetCluster,
    workers: Vec<ShardWorker>,
    announcer: AnnouncerNode,
}

impl Deployment {
    /// Initiator setup, control plane, 3 × `RANGES × RF` workers and the
    /// announcer attached over loopback TCP. Also returns the pause taken
    /// before `start` (see [`SETTLE`]), which is not set-up work.
    fn start(seed: u64) -> Option<(Deployment, Duration)> {
        let setup = Initiator::new(
            SystemConfig::new(OWNERS, DOMAIN)
                .with_seed(seed)
                .with_agg_domain_max(AGG_DOMAIN_MAX),
        )
        .setup()
        .ok()?;
        let cfg = RegistryConfig {
            replication: RF,
            ..RegistryConfig::default()
        };
        let listener = ClusterListener::bind(setup.clone(), RANGES, cfg).ok()?;
        let addr = listener.addr();
        let dial = Duration::from_secs(10);
        let mut workers = Vec::new();
        for (k, params) in setup.servers.iter().enumerate() {
            for _ in 0..RANGES * RF {
                workers.push(ShardWorker::connect(params.clone(), k, addr, dial).ok()?);
            }
        }
        let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).ok()?;
        std::thread::sleep(SETTLE);
        let mut cluster = listener.start().ok()?;
        cluster.set_threads(THREADS);
        let dep = Deployment {
            cluster,
            workers,
            announcer,
        };
        Some((dep, SETTLE))
    }

    /// Shut the cluster down and wait for every node thread.
    fn stop(self) {
        let _ = self.cluster.shutdown();
        let _ = self.announcer.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// One server's share of one owner's table, as `bulk_upload` takes it.
type Columns = Vec<(Column, Vec<u64>)>;

/// Every owner's Table-11 columns (verification copies included), as
/// `columns[owner][server]`, shared with `tables::share_*`.
fn share_columns(data: &OwnerData, op: &OwnerParams, seed: u64) -> Vec<Vec<Columns>> {
    data.values
        .iter()
        .enumerate()
        .map(|(j, values)| {
            let indicator: Vec<u64> = values.iter().map(|&v| u64::from(v != 0)).collect();
            let complement: Vec<u64> = indicator.iter().map(|&x| 1 - x).collect();
            let mut prg = Prg::from_seed(seed ^ (0x5EED + j as u64));
            let ind = share_indicator(&indicator, op.delta, &mut prg);
            let v = share_indicator(&op.pf_db1.apply(&complement), op.delta, &mut prg);
            let c1 = share_indicator(&op.pf_db1.apply(&indicator), op.delta, &mut prg);
            let c2 = share_indicator(&op.pf_db2.apply(&indicator), op.delta, &mut prg);
            let p = share_payload(values, &op.field, &mut prg);
            let vp = share_payload(&op.pf_db1.apply(values), &op.field, &mut prg);
            let cnt = share_payload(&indicator, &op.field, &mut prg);
            (0..3)
                .map(|k| {
                    let mut cols = Vec::new();
                    if k < 2 {
                        cols.push((Column::Ok, ind.shares[k].clone()));
                        cols.push((Column::VOk, v.shares[k].clone()));
                        cols.push((Column::OkDb1, c1.shares[k].clone()));
                        cols.push((Column::OkDb2, c2.shares[k].clone()));
                    }
                    cols.push((Column::Agg(0), p.shares[k].clone()));
                    cols.push((Column::VAgg(0), vp.shares[k].clone()));
                    cols.push((Column::AOk, cnt.shares[k].clone()));
                    cols
                })
                .collect()
        })
        .collect()
}

/// `(owner link, shard link, announcer)` bytes between two reports.
fn link_bytes(now: &NetReport, then: &NetReport) -> [u64; 3] {
    let owner = |r: &NetReport| r.total_bytes();
    let shard = |r: &NetReport| -> u64 {
        r.to_shards
            .iter()
            .chain(&r.from_shards)
            .flatten()
            .map(|&(b, _)| b)
            .sum()
    };
    [
        owner(now) - owner(then),
        shard(now) - shard(then),
        now.announcer_bytes() - then.announcer_bytes(),
    ]
}

/// What an op returned, reduced to what [`check`] compares.
enum Output {
    Batch(Vec<prism_protocol::AggResult>),
    Common(Vec<usize>),
    Size(usize),
    Max(Vec<prism_protocol::max::MaxCell>),
}

/// Run op `op` of the mix as `client`: through `execute_as` when
/// untraced, through the engine over a timing decorator when traced.
fn run_op(
    cluster: &NetCluster,
    op: usize,
    data: &OwnerData,
    seed: u64,
    client: u32,
    trace: Option<&Tracer>,
) -> (Result<Output, String>, Option<Sample>) {
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let values: Vec<&[u64]> = data.values.iter().map(Vec::as_slice).collect();
    let runner = Runner {
        cluster,
        trace,
        client,
        op,
    };
    let z_seed = seed ^ 0xC3;
    match op {
        0 => runner.go(
            &plans::Batch {
                batch: &batch,
                seed: z_seed,
            },
            Output::Batch,
        ),
        1 => runner.go(&plans::PsiVerified, |o| Output::Common(o.common)),
        2 => runner.go(&plans::PsuVerified, |m| {
            Output::Size(m.iter().filter(|&&x| x).count())
        }),
        3 => runner.go(&plans::CountVerified, Output::Size),
        _ => runner.go(
            &plans::Max {
                values,
                table: None,
                seed: z_seed,
                cell_chunk: plans::DEFAULT_CELL_CHUNK,
            },
            |(cells, _)| Output::Max(cells),
        ),
    }
}

fn check(op: usize, out: Output, e: &Expected, data: &OwnerData) -> Result<(), String> {
    match (op, out) {
        (0, Output::Batch(res)) => e.check_batch(&res),
        (1, Output::Common(common)) => e.check_common(&common),
        (2, Output::Size(n)) => e.check_size("|PSU|", n, e.union),
        (3, Output::Size(n)) => e.check_size("|PSI|", n, e.common.len()),
        (4, Output::Max(cells)) => e.check_max(data, &cells),
        _ => Err("unexpected output shape".into()),
    }
}

struct Runner<'a> {
    cluster: &'a NetCluster,
    trace: Option<&'a Tracer>,
    client: u32,
    op: usize,
}

impl Runner<'_> {
    fn go<P: Operation>(
        &self,
        plan: &P,
        wrap: impl FnOnce(P::Output) -> Output,
    ) -> (Result<Output, String>, Option<Sample>) {
        let sample = |stats| Sample {
            op: self.op,
            wall: Duration::ZERO,
            stats,
            traced: false,
            round: Duration::ZERO,
            announce: Duration::ZERO,
            encode: Duration::ZERO,
            decode: Duration::ZERO,
        };
        let Some(tracer) = self.trace else {
            return match self.cluster.execute_as(self.client, plan) {
                Ok((out, stats)) => (Ok(wrap(out)), Some(sample(stats))),
                Err(e) => (Err(e.to_string()), None),
            };
        };
        let query = tracer.open("query", None);
        let timed = Timed {
            net: self.cluster,
            tracer,
            parent: query,
            round: Cell::default(),
            announce: Cell::default(),
            encode: Cell::default(),
            decode: Cell::default(),
            wire_errors: Cell::default(),
        };
        let out = Engine::new(&timed, &self.cluster.setup().owner)
            .with_threads(THREADS)
            .run(plan);
        tracer.close(query);
        if timed.wire_errors.get() > 0 {
            return (Err("wire replay did not round-trip".into()), None);
        }
        match out {
            Ok((out, stats)) => {
                let mut s = sample(stats);
                s.round = timed.round.get();
                s.announce = timed.announce.get();
                s.encode = timed.encode.get();
                s.decode = timed.decode.get();
                (Ok(wrap(out)), Some(s))
            }
            Err(e) => (Err(e.to_string()), None),
        }
    }
}

/// A `ServerExec` decorator around the `NetCluster` that times every
/// `round` and `announce` call and replays each round's `RunBatch`
/// commands and `Outputs` replies through the wire codec, outside the
/// timed call.
struct Timed<'a> {
    net: &'a NetCluster,
    tracer: &'a Tracer,
    parent: usize,
    round: Cell<Duration>,
    announce: Cell<Duration>,
    encode: Cell<Duration>,
    decode: Cell<Duration>,
    wire_errors: Cell<u32>,
}

impl Timed<'_> {
    fn replay(&self, msg: &Message) {
        let t0 = Instant::now();
        let bytes = msg.encode();
        let t1 = Instant::now();
        let decoded = Message::decode(&bytes);
        let t2 = Instant::now();
        self.tracer.record("wire.encode", t0, t1, Some(self.parent));
        self.tracer.record("wire.decode", t1, t2, Some(self.parent));
        self.encode.set(self.encode.get() + (t1 - t0));
        self.decode.set(self.decode.get() + (t2 - t1));
        if !matches!(decoded, Ok(ref d) if d == msg) {
            self.wire_errors.set(self.wire_errors.get() + 1);
        }
    }
}

impl ServerExec for Timed<'_> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        let runs: Vec<Message> = cmds
            .iter()
            .filter_map(|(_, c)| match c {
                ServerCmd::Run(b) => Some(Message::RunBatch(b.clone())),
                _ => None,
            })
            .collect();
        let t0 = Instant::now();
        let out = self.net.round(cmds);
        let t1 = Instant::now();
        self.tracer.record("round", t0, t1, Some(self.parent));
        self.round.set(self.round.get() + (t1 - t0));
        if let Ok(o) = &out {
            let replies = o.replies.iter().filter_map(|r| match r {
                ServerReply::Vectors(v) => Some(Message::Outputs(v.clone())),
                _ => None,
            });
            for msg in runs.into_iter().chain(replies) {
                self.replay(&msg);
            }
        }
        out
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        let t0 = Instant::now();
        let out = self.net.announce(cmd, seq, threads);
        let t1 = Instant::now();
        self.tracer.record("announce", t0, t1, Some(self.parent));
        self.announce.set(self.announce.get() + (t1 - t0));
        out
    }

    fn meters(&self) -> ExecMeters {
        self.net.meters()
    }
}
