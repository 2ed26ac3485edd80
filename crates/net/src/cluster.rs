//! A deployed PRISM cluster: server domains on threads, owners as clients.
//!
//! Topology is the security argument made physical: each server domain
//! is constructed with exactly *one* link to the owner side. There is no
//! constructor that gives a server a link to another server, so the
//! no-server-communication property of §3.2 holds by construction, and
//! the per-link meters show exactly what crossed each edge.
//!
//! A domain may be **sharded**: behind the owner-facing link sits one
//! domain router thread fronting `k ≥ 1` row-range shard workers, each
//! an engine [`ServerNode`] in the shard-worker loop over its own metered
//! link (so a worker can move to another process or machine without
//! touching protocol code). Static and elastic deployments run the same
//! router and the same worker loop: the router reads its plan and worker
//! links from a per-domain routing state, which the static constructors
//! build once (one worker per range, replication 1, no prober) and which
//! the [`crate::registry`] control plane keeps re-planning as workers
//! attach and die. The router splits Phase-1 uploads and every
//! [`Message::RunBatch`] by rows ([`ShardPlan`]), fans the sub-batches
//! out as shard-tagged [`Message::ShardRun`] envelopes, and merges the
//! shard rows back with [`prism_protocol::shard::merge_shard_outputs`] —
//! applying the domain's tampering behaviour and finish permutations
//! *server-side*, where `PF_s1`/`PF_s2` are allowed to live. The owner
//! side never sees shard granularity in replies; it only meters it
//! ([`NetReport`]). An unsharded domain has no router: its single node
//! sits directly behind the owner link.
//!
//! Since PR 4 the **announcer is a fourth networked node**: a thread
//! holding only [`AnnouncerParams`],
//! reachable over exactly three links — one control link from the owner
//! side and one upload link from each additive server domain. During a
//! max/median round the servers push their `PF`-permuted wide-share
//! matrices ([`Message::WideUpload`]) straight down those server→announcer
//! edges; the owner side sees only a shape receipt
//! ([`Message::WideForwarded`]), because the per-slot blinded values are
//! exactly what §4's knowledge table forbids owners from seeing. The
//! announcer traffic is metered like every other edge ([`NetReport`]).
//!
//! Protocol logic lives entirely in `prism_protocol`: [`NetCluster`]
//! implements [`ServerExec`] so the *same* round plans the in-memory
//! driver executes run here over channels or TCP — every operation,
//! max/median included, with batched round-2 queries and the full
//! tamper × operation verification matrix (server *and* announcer
//! tampers).

use crate::mux::{Admission, MuxLink, Pending, QueryId};
use crate::registry::Liveness;
use crate::transport::{channel_pair, Link, LinkStats, NetError, TcpLink};
use crate::wire::{recycle_vecs, Column, Message};
use parking_lot::RwLock;
use prism_core::Permutation;
use prism_protocol::cache::{CachedExec, PsiRoundCache};
use prism_protocol::engine::{
    Announcer, AnnouncerCmd, AnnouncerReply, BatchQuery, Engine, ExecMeters, Operation, QueryStats,
    RoundOutcome, ServerCmd, ServerExec, ServerNode, ServerReply,
};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::max::MaxCell;
use prism_protocol::median::MedianCell;
use prism_protocol::params::{
    AnnouncerParams, ServerParams, Setup, ADDITIVE_SERVERS, SHAMIR_SERVERS,
};
use prism_protocol::shard::{merge_shard_outputs, shard_server_params, ShardPlan, ShardSpec};
use prism_protocol::{average, plans, ProtocolError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::thread::JoinHandle;

/// Answer the owner side: tagged when the request carried a query
/// envelope (the reply must route back through the owner's multiplexer to
/// that query's slot), plain otherwise.
pub(crate) fn reply(link: &dyn Link, tag: Option<u64>, msg: Message) -> Result<(), NetError> {
    let msg = match tag {
        Some(t) => msg.tagged(t),
        None => msg,
    };
    link.send(&msg)
}

/// Execute one wide command (max/median round) on `node` and answer the
/// owner: a combined matrix goes to the announcer over the dedicated
/// server→announcer link and the owner gets the shape receipt; an fpos
/// table goes back on the owner link directly (claim shares are owner
/// data). Any failure — node error, or a wide round at a server with no
/// announcer edge — is reported as the zero receipt / empty table, which
/// the plans' shape checks turn into a protocol error at the owner
/// (servers are malicious in this threat model; they must not panic or
/// hang the owner).
///
/// Ordering matters under concurrency: the `WideUpload` is sent *before*
/// the owner's receipt, so by the time any owner can quote `seq` in an
/// `AnnounceRun`, that round's uploads are already in flight on the
/// server→announcer edges — the announcer's drain can never wait on an
/// upload that was not yet sent. The upload itself stays untagged: its
/// `seq` (not a `QueryId`) is what pairs it at the announcer.
pub(crate) fn run_wide(
    node: &ServerNode,
    cmd: ServerCmd,
    seq: u64,
    tag: Option<u64>,
    owner_link: &dyn Link,
    announcer: Option<&dyn Link>,
) -> Result<(), NetError> {
    if matches!(cmd, ServerCmd::AssembleFpos { .. }) {
        let outs = match node.execute(&cmd) {
            Ok(ServerReply::Fpos(f)) => f,
            _ => Vec::new(),
        };
        return reply(owner_link, tag, Message::Fpos(outs));
    }
    match (node.execute(&cmd), announcer) {
        (Ok(ServerReply::Wide(w)), Some(ann)) => {
            let (rows, width) = (w.rows() as u64, w.width as u32);
            ann.send(&Message::WideUpload {
                server: node.params().server_id as u32,
                seq,
                shares: w,
            })?;
            reply(owner_link, tag, Message::WideForwarded { rows, width, seq })
        }
        _ => reply(
            owner_link,
            tag,
            Message::WideForwarded {
                rows: 0,
                width: 0,
                seq,
            },
        ),
    }
}

/// Run a stored-column batch on a node, flattening failures to the empty
/// output list (the engine's reply-shape check rejects it as a
/// `MalformedResponse` at the owner — servers are malicious in this
/// threat model and must not panic or hang the owner).
pub(crate) fn run_batch_on(node: &ServerNode, batch: BatchQuery) -> Vec<Vec<u64>> {
    let cmd = ServerCmd::Run(batch);
    let outs = match node.execute(&cmd) {
        Ok(ServerReply::Vectors(outs)) => outs,
        _ => Vec::new(),
    };
    // The decoded z buffers are dead once the kernels ran; hand them back
    // to the wire pool so the next round's decode allocates nothing.
    if let ServerCmd::Run(batch) = cmd {
        recycle_vecs(batch.zs);
    }
    outs
}

/// Decode a delta upload's permutation extensions: empty maps mean
/// identity blocks (`None`); malformed maps poison the delta, which the
/// node then rejects (`Some` of an impossible zero-length pair would be
/// wrong — instead the caller skips the apply).
pub(crate) fn decode_perm_ext(
    pf_s1_ext: Vec<u32>,
    pf_s2_ext: Vec<u32>,
) -> Result<Option<(Permutation, Permutation)>, ()> {
    if pf_s1_ext.is_empty() && pf_s2_ext.is_empty() {
        return Ok(None);
    }
    match (
        Permutation::from_map(pf_s1_ext),
        Permutation::from_map(pf_s2_ext),
    ) {
        (Some(e1), Some(e2)) => Ok(Some((e1, e2))),
        _ => Err(()),
    }
}

/// Run an unsharded domain's message loop until `Shutdown`: an engine
/// [`ServerNode`] holding the full domain parameters, sitting directly
/// behind the owner link. An additive server domain additionally holds
/// the server→announcer `announcer` link for the wide (max/median)
/// rounds.
///
/// **Concurrency.** Query rounds (`RunBatch`, the wide commands) are
/// served on spawned worker threads holding a read lock on the node, so N
/// queries multiplexed over this link compute in parallel; each reply
/// carries the request's query tag, and the owner's per-link pump routes
/// it to the right query. Store mutations (uploads, tamper control) take
/// the write lock inline on the serving thread — the link's receive order
/// is the linearization point, exactly as it was when the whole loop was
/// sequential.
pub(crate) fn server_loop(
    params: ServerParams,
    link: Box<dyn Link>,
    announcer: Option<Box<dyn Link>>,
) -> Result<(), NetError> {
    let link: Arc<dyn Link> = Arc::from(link);
    let announcer: Option<Arc<dyn Link>> = announcer.map(Arc::from);
    let node = Arc::new(RwLock::new(ServerNode::new(params)));
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (tag, msg) = link.recv()?.untag();
        match msg {
            Message::BulkUpload { owner, columns } => {
                let mut node = node.write();
                for (column, data) in columns {
                    node.store(owner as usize, column, data);
                }
                drop(node);
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                // A malformed delta (bad maps, non-contiguous range) is
                // simply not applied — the server stays on its previous
                // store state, which verification then catches, exactly
                // like any other misbehaving-server shape.
                if let Ok(ext) = decode_perm_ext(pf_s1_ext, pf_s2_ext) {
                    let _ = node.write().delta_upload(
                        owner as usize,
                        start as usize,
                        columns,
                        ext.as_ref().map(|(e1, e2)| (e1, e2)),
                    );
                }
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::SetTamper(t) => {
                node.write().set_tamper(t);
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::RangeVersionProbe => {
                let v = node.read().range_versions();
                reply(link.as_ref(), tag, Message::Versions(v))?;
            }
            Message::RunBatch(batch) => {
                let node = Arc::clone(&node);
                let link = Arc::clone(&link);
                workers.push(std::thread::spawn(move || {
                    let outs = run_batch_on(&node.read(), batch);
                    let _ = reply(link.as_ref(), tag, Message::Outputs(outs));
                }));
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let node = Arc::clone(&node);
                let link = Arc::clone(&link);
                let ann = announcer.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = run_wide(
                        &node.read(),
                        ServerCmd::MaxCombine { uploads, threads },
                        seq,
                        tag,
                        link.as_ref(),
                        ann.as_deref(),
                    );
                }));
            }
            Message::AssembleFpos { claims, threads } => {
                let node = Arc::clone(&node);
                let link = Arc::clone(&link);
                let ann = announcer.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = run_wide(
                        &node.read(),
                        ServerCmd::AssembleFpos { claims, threads },
                        0,
                        tag,
                        link.as_ref(),
                        ann.as_deref(),
                    );
                }));
            }
            Message::Shutdown => {
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                return Ok(());
            }
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
        workers.retain(|h| !h.is_finished());
    }
}

// ---------------------------------------------------------------------
// Sharded domains: one router, one shard-worker loop
// ---------------------------------------------------------------------

/// One shard worker behind a domain router, as the router and the
/// control plane track it.
pub(crate) struct WorkerSlot {
    pub(crate) node: u64,
    pub(crate) label: String,
    pub(crate) link: Arc<MuxLink>,
    pub(crate) last_seen: Instant,
    pub(crate) misses: u32,
    pub(crate) liveness: Liveness,
    /// Generation of the assignment this worker last acked.
    pub(crate) generation: u64,
    /// Index into the domain plan's specs of the row range this worker
    /// holds. Several workers share a range under replication; holder
    /// order within [`DomainState::workers`] breaks the tie — the first
    /// holder of a range is its primary.
    pub(crate) range: usize,
}

impl WorkerSlot {
    /// A freshly attached, live worker at generation 0.
    pub(crate) fn new(node: u64, label: String, link: Arc<MuxLink>, range: usize) -> WorkerSlot {
        WorkerSlot {
            node,
            label,
            link,
            last_seen: Instant::now(),
            misses: 0,
            liveness: Liveness::Alive,
            generation: 0,
            range,
        }
    }
}

/// A sharded domain's routing state: its (growable) parameters, the row
/// plan, and the workers holding each range. A static deployment builds
/// it once (one holder per range, generation 0, nobody writes it but the
/// router's own growth); an elastic one shares it with the registry's
/// attach dispatcher and prober, which re-plan it. The lock is the heal
/// barrier: a route task holds `read` for its whole fan-out, a heal holds
/// `write` across assign + replay, so every query runs entirely before
/// or entirely after a heal — never against a half-replayed store.
pub(crate) struct DomainState {
    pub(crate) params: ServerParams,
    /// Configured worker ceiling (`ranges × rf`); attaches beyond it
    /// are rejected.
    pub(crate) target: usize,
    /// Replication factor each row range is stored at (when enough
    /// workers are attached).
    pub(crate) rf: usize,
    pub(crate) generation: u64,
    pub(crate) plan: ShardPlan,
    pub(crate) workers: Vec<WorkerSlot>,
}

/// A domain with zero surviving workers is *offline*, not empty: every
/// data-path message answers [`Message::NodeDown`] with this sentinel
/// until a replacement worker attaches and the registry re-fans.
const NO_WORKERS: u64 = u64::MAX;

impl DomainState {
    /// A worker-less domain carving `ranges` row ranges, each to be held
    /// by `rf` workers.
    pub(crate) fn new(params: ServerParams, ranges: usize, rf: usize) -> DomainState {
        let plan = ShardPlan::new(params.b, ranges);
        DomainState {
            target: plan.shard_count() * rf,
            rf,
            generation: 0,
            plan,
            params,
            workers: Vec::new(),
        }
    }

    /// Worker indices holding plan range `r`, in attach order — the
    /// first is the range's primary.
    pub(crate) fn holders_of(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.workers
            .iter()
            .enumerate()
            .filter(move |(_, w)| w.range == r)
            .map(|(i, _)| i)
    }

    /// True iff every range of the current plan still has at least one
    /// holder — the promotion precondition: no row range was lost.
    pub(crate) fn covered(&self) -> bool {
        (0..self.plan.shard_count()).all(|r| self.holders_of(r).next().is_some())
    }

    /// `Err(NO_WORKERS)` while the domain has no worker at all.
    fn online(&self) -> Result<(), u64> {
        if self.workers.is_empty() {
            Err(NO_WORKERS)
        } else {
            Ok(())
        }
    }

    /// Apply a delta upload to the routing state and name the range that
    /// must store it. Growth (`start` at the domain end) concatenates the
    /// finish-permutation extensions here — the router holds the domain's
    /// real `PF_s1`/`PF_s2` — and extends the last range; a latest-epoch
    /// re-touch must end at the domain boundary. `None` means there is
    /// nothing to forward: an empty delta, or a malformed one, which is
    /// acked without applying — verification catches the divergence,
    /// exactly as for a tampering server.
    fn delta_target(
        &mut self,
        start: usize,
        added: usize,
        pf_s1_ext: Vec<u32>,
        pf_s2_ext: Vec<u32>,
    ) -> Option<ShardSpec> {
        if added == 0 {
            return None;
        }
        if start == self.params.b {
            let (e1, e2) = decode_perm_ext(pf_s1_ext, pf_s2_ext)
                .ok()?
                .unwrap_or_else(|| (Permutation::identity(added), Permutation::identity(added)));
            if e1.len() != added || e2.len() != added {
                return None;
            }
            self.params.pf_s1 = self.params.pf_s1.concat(&e1);
            self.params.pf_s2 = self.params.pf_s2.concat(&e2);
            self.params.b += added;
            self.plan = self.plan.append(added, false);
        } else if start + added != self.params.b {
            return None;
        }
        self.plan
            .specs()
            .last()
            .copied()
            .filter(|spec| spec.start <= start)
    }
}

/// Fan an acked store message to the workers: `mk` builds each worker's
/// message from the range it holds, or skips the worker with `None`. The
/// fan is tolerant per range: a holder whose link fails mid-upload is
/// survivable as long as *some* holder of that range acked — link death
/// is sticky, so the lagging holder can never serve a query again and
/// the prober will reap it. `Err(worker)` (reported as
/// [`Message::NodeDown`]) means some targeted range got no ack at all.
fn fan_acked(
    st: &DomainState,
    corr: u64,
    mk: impl Fn(&ShardSpec) -> Option<Message>,
) -> Result<(), u64> {
    st.online()?;
    // Per range: `None` untargeted, `Some(acks)` otherwise.
    let mut acked: Vec<Option<usize>> = vec![None; st.plan.shard_count()];
    let mut pendings = Vec::with_capacity(st.workers.len());
    let mut failed = NO_WORKERS;
    for (i, slot) in st.workers.iter().enumerate() {
        let Some(msg) = mk(&st.plan.specs()[slot.range]) else {
            continue;
        };
        acked[slot.range].get_or_insert(0);
        let sent = slot
            .link
            .begin(corr)
            .and_then(|p| slot.link.send(corr, msg).map(|()| p));
        match sent {
            Ok(p) => pendings.push((i, p)),
            Err(_) => failed = i as u64,
        }
    }
    for (i, p) in pendings {
        match p.recv() {
            Ok(Message::Ack) => *acked[st.workers[i].range].get_or_insert(0) += 1,
            _ => failed = i as u64,
        }
    }
    if acked.contains(&Some(0)) {
        Err(failed)
    } else {
        Ok(())
    }
}

/// One request per row range, answered by the range's primary: every
/// range's request ships to its first holder concurrently, and only a
/// *link-level* failure (begin/send refused, or the pump dead) re-asks
/// the range's next holder with `resend(r)`. A reply that arrives is
/// final, right or wrong — the caller judges it, and a standby is never
/// asked to mask a malformed answer that verification would catch.
/// `Err(r)` (reported as [`Message::NodeDown`]): every holder of range
/// `r` is down.
fn fan_ranges(
    st: &DomainState,
    corr: u64,
    requests: Vec<Message>,
    resend: impl Fn(usize) -> Option<Message>,
) -> Result<Vec<Message>, u64> {
    st.online()?;
    let ship = |r: usize, h: usize, msg: Message| -> Option<Pending> {
        let slot = &st.workers[st.holders_of(r).nth(h)?];
        let p = slot.link.begin(corr).ok()?;
        slot.link.send(corr, msg).ok()?;
        Some(p)
    };
    let firsts: Vec<Option<Pending>> = requests
        .into_iter()
        .enumerate()
        .map(|(r, msg)| ship(r, 0, msg))
        .collect();
    let mut replies = Vec::with_capacity(firsts.len());
    for (r, mut pending) in firsts.into_iter().enumerate() {
        let mut next = 1;
        let reply = loop {
            if let Some(Ok(msg)) = pending.take().map(|p| p.recv()) {
                break msg;
            }
            if next >= st.holders_of(r).count() {
                return Err(r as u64);
            }
            pending = resend(r).and_then(|msg| ship(r, next, msg));
            next += 1;
        };
        replies.push(reply);
    }
    Ok(replies)
}

/// Fan one batched round over the domain's ranges as shard-tagged
/// [`Message::ShardRun`] envelopes and merge the rows back, applying the
/// domain tamper and finish permutations. Each range's sub-batch ships by
/// value; only a replica retry re-splits it from `batch`. A crash (every
/// holder of a range down) answers [`Message::NodeDown`]; a crossed or
/// malformed shard reply answers the empty output list, which the
/// engine's reply-shape check turns into a `MalformedResponse` at the
/// owner — tamper-shaped, and reported like tamper.
fn fan_batch(st: &DomainState, tamper: &Tamper, batch: &BatchQuery, corr: u64) -> Message {
    let Ok(subs) = st.plan.split_batch(batch) else {
        return Message::Outputs(Vec::new());
    };
    let run = |r: usize, sub| Message::ShardRun {
        shard: r as u32,
        batch: sub,
    };
    let requests = subs
        .into_iter()
        .enumerate()
        .map(|(r, sub)| run(r, sub))
        .collect();
    let resend = |r: usize| {
        let mut subs = st.plan.split_batch(batch).ok()?;
        Some(run(r, subs.swap_remove(r)))
    };
    let replies = match fan_ranges(st, corr, requests, resend) {
        Ok(replies) => replies,
        Err(node) => return Message::NodeDown { node },
    };
    let per_shard: Option<Vec<Vec<Vec<u64>>>> = replies
        .into_iter()
        .enumerate()
        .map(|(r, reply)| match reply {
            Message::ShardOutputs { shard, outputs } if shard as usize == r => Some(outputs),
            _ => None,
        })
        .collect();
    let merged = per_shard.and_then(|p| merge_shard_outputs(&p, batch, &st.params, tamper).ok());
    Message::Outputs(merged.unwrap_or_default())
}

/// Concatenate every range's store stamps in range (= global row) order.
/// Each worker reports in global row coordinates already (its
/// `row_offset` is folded in), matching the in-process
/// [`ShardedNode`](prism_protocol::shard::ShardedNode) by construction.
/// Replica stamps may differ (their rebuild histories fold different
/// `version_base`s), which is safe: a promotion dirties the domain, and
/// entries cut against the old primary re-probe — they only revive if the
/// new primary agrees.
fn probe_versions(st: &DomainState, corr: u64) -> Message {
    let requests = vec![Message::RangeVersionProbe; st.plan.shard_count()];
    let stamps =
        fan_ranges(st, corr, requests, |_| Some(Message::RangeVersionProbe)).and_then(|replies| {
            let mut stamps = Vec::new();
            for (r, reply) in replies.into_iter().enumerate() {
                match reply {
                    Message::Versions(v) => stamps.extend(v),
                    _ => return Err(r as u64),
                }
            }
            Ok(stamps)
        });
    match stamps {
        Ok(v) => Message::Versions(v),
        Err(node) => Message::NodeDown { node },
    }
}

/// Run one sharded domain's router loop until `Shutdown`: split uploads
/// and batches by row range, fan them to the workers holding each range,
/// merge replies, and hold the domain-level tampering behaviour. The plan
/// and the worker links are read from `shared` on every message, so the
/// same loop serves a fixed-membership static domain and a registry-
/// managed elastic one. A worker-link failure answers the owner with
/// [`Message::NodeDown`] (crash, not tamper) and keeps the router alive —
/// the next round after a heal routes over the survivors. Forwards
/// `Shutdown` to the workers before exiting.
///
/// Wide (max/median) rounds never fan out: they are parameter-only — the
/// owner-slot permutation `PF` and the wide width are identical on every
/// shard and touch no stored columns — so the router answers them itself
/// through `wide_node` (a storage-less [`ServerNode`] holding the *full*
/// domain parameters) and fronts the domain's server→announcer edge,
/// mirroring [`ShardedNode`](prism_protocol::shard::ShardedNode)'s
/// in-process behaviour of answering wide commands at the domain level.
///
/// **Concurrency.** The worker links are multiplexed ([`MuxLink`]): every
/// worker round-trip is correlated by a **router-local** id (high bit
/// set, so it can never collide with an owner-minted `QueryId` or a
/// control-plane id), and query rounds are served on spawned route tasks
/// so N queries fan out over the same worker links concurrently. Uploads
/// and tamper control stay inline on the serving thread: the owner link's
/// receive order is their linearization point, and the domain tamper and
/// wide node are snapshotted at dispatch for the same reason.
pub(crate) fn domain_loop(
    owner_link: Box<dyn Link>,
    shared: Arc<RwLock<DomainState>>,
    announcer: Option<Arc<dyn Link>>,
) -> Result<(), NetError> {
    let owner_link: Arc<dyn Link> = Arc::from(owner_link);
    let mut wide_node = Arc::new(ServerNode::new(shared.read().params.clone()));
    let mut tamper = Tamper::Honest;
    let corr = AtomicU64::new(1 << 63);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let ack_or_down = |outcome: Result<(), u64>| match outcome {
        Ok(()) => Message::Ack,
        Err(node) => Message::NodeDown { node },
    };
    loop {
        let (tag, msg) = owner_link.recv()?.untag();
        match msg {
            Message::BulkUpload { owner, columns } => {
                let id = corr.fetch_add(1, Ordering::Relaxed);
                let st = shared.read();
                // Best-effort split: a short column leaves short ranges,
                // which surface as shape errors at query time.
                let parts: Vec<Vec<&[u64]>> =
                    columns.iter().map(|(_, d)| st.plan.split_rows(d)).collect();
                let outcome = fan_acked(&st, id, |spec| {
                    let sliced = columns
                        .iter()
                        .zip(&parts)
                        .map(|((c, _), p)| (*c, p[spec.index].to_vec()))
                        .collect();
                    Some(Message::BulkUpload {
                        owner,
                        columns: sliced,
                    })
                });
                drop(st);
                reply(owner_link.as_ref(), tag, ack_or_down(outcome))?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                let start = start as usize;
                let added = columns.first().map_or(0, |(_, d)| d.len());
                let id = corr.fetch_add(1, Ordering::Relaxed);
                // Write lock: growth mutates the plan and parameters every
                // route task and heal reads.
                let mut st = shared.write();
                let outcome = st.online().and_then(|()| {
                    let b = st.params.b;
                    let Some(tail) = st.delta_target(start, added, pf_s1_ext, pf_s2_ext) else {
                        return Ok(());
                    };
                    if st.params.b != b {
                        wide_node = Arc::new(ServerNode::new(st.params.clone()));
                    }
                    // Every holder of the tail range applies the delta, in
                    // its local coordinates; the worker extends by
                    // identity, since the finish permutations live here.
                    fan_acked(&st, id, |spec| {
                        (spec.index == tail.index).then(|| Message::DeltaUpload {
                            owner,
                            start: (start - tail.start) as u64,
                            columns: columns.clone(),
                            pf_s1_ext: Vec::new(),
                            pf_s2_ext: Vec::new(),
                        })
                    })
                });
                drop(st);
                reply(owner_link.as_ref(), tag, ack_or_down(outcome))?;
            }
            Message::SetTamper(t) => {
                tamper = t;
                reply(owner_link.as_ref(), tag, Message::Ack)?;
            }
            Message::RunBatch(batch) => {
                let shared = Arc::clone(&shared);
                let owner_link = Arc::clone(&owner_link);
                let id = corr.fetch_add(1, Ordering::Relaxed);
                workers.push(std::thread::spawn(move || {
                    // Hold the read side for the whole fan-out: the heal
                    // barrier.
                    let msg = fan_batch(&shared.read(), &tamper, &batch, id);
                    let _ = reply(owner_link.as_ref(), tag, msg);
                }));
            }
            Message::RangeVersionProbe => {
                let shared = Arc::clone(&shared);
                let owner_link = Arc::clone(&owner_link);
                let id = corr.fetch_add(1, Ordering::Relaxed);
                workers.push(std::thread::spawn(move || {
                    let msg = probe_versions(&shared.read(), id);
                    let _ = reply(owner_link.as_ref(), tag, msg);
                }));
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                let wide_node = Arc::clone(&wide_node);
                let owner_link = Arc::clone(&owner_link);
                let ann = announcer.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = run_wide(
                        &wide_node,
                        ServerCmd::MaxCombine { uploads, threads },
                        seq,
                        tag,
                        owner_link.as_ref(),
                        ann.as_deref(),
                    );
                }));
            }
            Message::AssembleFpos { claims, threads } => {
                let wide_node = Arc::clone(&wide_node);
                let owner_link = Arc::clone(&owner_link);
                let ann = announcer.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = run_wide(
                        &wide_node,
                        ServerCmd::AssembleFpos { claims, threads },
                        0,
                        tag,
                        owner_link.as_ref(),
                        ann.as_deref(),
                    );
                }));
            }
            Message::Shutdown => {
                // Route tasks still in flight need their workers' replies;
                // join them before telling the workers to exit.
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                for w in shared.read().workers.iter() {
                    let _ = w.link.send_raw(&Message::Shutdown);
                }
                return Ok(());
            }
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
        workers.retain(|h| !h.is_finished());
    }
}

/// The shard-worker loop: an engine [`ServerNode`] over the assigned row
/// range of a domain, answering its router's stores, version probes and
/// shard-tagged [`Message::ShardRun`] rounds (echoing the shard index so
/// the router can detect crossed links), plus the control plane's `Ping`
/// and `Assign`. A static deployment's worker is simply never pinged or
/// re-assigned. Wide rounds are answered at the router, never here.
///
/// `version_base` makes the domain's store version strictly increase
/// across re-assignments: each `Assign` folds the old node's version
/// (plus one) into the base before rebuilding, and probes answer
/// `base + node.version()` — so a heal can never leave a domain's
/// summed version where it was, and every stale cache entry dies.
///
/// Concurrency follows `server_loop`: rounds compute on spawned threads
/// under the node's read lock, stores and assignments take the write lock
/// inline.
pub(crate) fn worker_loop(
    domain_params: ServerParams,
    link: Arc<dyn Link>,
    spec0: ShardSpec,
    generation0: u64,
    tamper0: Tamper,
) -> Result<(), NetError> {
    let fresh_node = |spec: &ShardSpec| {
        let mut n = ServerNode::new(shard_server_params(&domain_params, spec));
        // A worker born tampered (chaos testing) stays tampered across
        // rebuilds; honest workers get the identity.
        n.set_tamper(tamper0);
        n
    };
    let node = Arc::new(RwLock::new(fresh_node(&spec0)));
    let mut cur_spec = spec0;
    let mut cur_gen = generation0;
    let mut version_base = 0u64;
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (tag, msg) = link.recv()?.untag();
        match msg {
            Message::BulkUpload { owner, columns } => {
                let mut node = node.write();
                for (column, data) in columns {
                    node.store(owner as usize, column, data);
                }
                drop(node);
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                ..
            } => {
                // Local (shard) coordinates; the finish permutations live
                // at the router, so the shard node extends by identity
                // (the wire extensions are ignored here). Best-effort: a
                // malformed delta is simply not applied — verification
                // catches the divergence.
                let start = start as usize;
                let added = columns.first().map_or(0, |(_, d)| d.len());
                let grew = start == cur_spec.len && added > 0;
                let applied = node
                    .write()
                    .delta_upload(owner as usize, start, columns, None)
                    .is_ok();
                if applied && grew {
                    cur_spec.len += added;
                }
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::RangeVersionProbe => {
                // Fold the re-assignment base into every stamp: a healed
                // (rebuilt + replayed) node must never report the same
                // per-range versions as its predecessor, or a stale cache
                // entry could validate across the heal.
                let v: Vec<(u64, u64, u64)> = node
                    .read()
                    .range_versions()
                    .into_iter()
                    .map(|(s, l, ver)| (s, l, ver + version_base))
                    .collect();
                reply(link.as_ref(), tag, Message::Versions(v))?;
            }
            Message::Ping { seq } => {
                reply(
                    link.as_ref(),
                    tag,
                    Message::Pong {
                        seq,
                        generation: cur_gen,
                    },
                )?;
            }
            Message::Assign {
                generation: gen,
                start,
                len,
            } => {
                let spec = ShardSpec {
                    index: 0,
                    start: start as usize,
                    len: len as usize,
                };
                // An assignment to the range already held is a pure
                // generation bump (the replay that follows overwrites
                // the same slices); only a *moved* range rebuilds the
                // node. Rebuilding on a no-op re-assign would wipe the
                // store with nothing scheduled to restore it.
                if spec.start != cur_spec.start || spec.len != cur_spec.len {
                    // The write lock drains in-flight query readers
                    // before the rebuild — no round computes across it.
                    let mut node = node.write();
                    version_base += node.version() + 1;
                    *node = fresh_node(&spec);
                    cur_spec = spec;
                }
                cur_gen = gen;
                reply(link.as_ref(), tag, Message::Ack)?;
            }
            Message::ShardRun { shard, batch } => {
                let node = Arc::clone(&node);
                let link = Arc::clone(&link);
                workers.push(std::thread::spawn(move || {
                    let outputs = run_batch_on(&node.read(), batch);
                    let _ = reply(link.as_ref(), tag, Message::ShardOutputs { shard, outputs });
                }));
            }
            Message::Shutdown => {
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                return Ok(());
            }
            _ => {
                // Wide rounds are answered at the domain router, never
                // at a worker; ignore stray traffic defensively.
            }
        }
        workers.retain(|h| !h.is_finished());
    }
}

/// Run the announcer node's loop until `Shutdown`: an engine
/// [`Announcer`] behind three links — the owner-side control link plus
/// one upload link per additive server. On [`Message::AnnounceRun`] it
/// drains each server edge into the announcer's staging inbox until the
/// requested round's upload from that server is staged (the servers sent
/// their uploads *before* the receipts the owner's `AnnounceRun` quotes,
/// so they are already in flight), announces, and replies on the control
/// link. Any failure — crossed links, mismatched matrices — answers
/// `Ack` as the failure marker, which the owner surfaces as a protocol
/// error instead of hanging.
///
/// **Concurrency.** Interleaved queries can put *several* wide rounds'
/// uploads on one server edge in any order; the drain deposits whatever
/// arrives — the announcer's per-round inbox keeps them apart by `seq`
/// and prunes abandoned rounds — and stops as soon as the round it needs
/// is staged. A later `AnnounceRun` whose uploads were swept up by an
/// earlier drain finds them already staged and drains nothing. Announce
/// requests themselves are served in control-link order; the reply
/// carries the request's query tag.
pub(crate) fn announcer_loop(
    params: AnnouncerParams,
    owner_link: Box<dyn Link>,
    server_links: Vec<Box<dyn Link>>,
) -> Result<(), NetError> {
    let mut announcer = Announcer::new(params);
    loop {
        let (tag, msg) = owner_link.recv()?.untag();
        match msg {
            Message::AnnounceRun { cmd, seq, threads } => {
                let mut staged = true;
                for (i, link) in server_links.iter().enumerate() {
                    while staged && !announcer.staged(i, seq) {
                        match link.recv()? {
                            Message::WideUpload {
                                server,
                                seq: upload_seq,
                                shares,
                            } if server as usize == i => {
                                staged &= announcer.deposit(i, upload_seq, shares).is_ok();
                            }
                            _ => {
                                staged = false; // crossed or malformed
                            }
                        }
                    }
                }
                let result = if staged {
                    announcer.announce(cmd, seq, (threads.max(1)) as usize).ok()
                } else {
                    None
                };
                match result {
                    Some((r, _)) => reply(owner_link.as_ref(), tag, Message::AnnounceReply(r))?,
                    None => reply(owner_link.as_ref(), tag, Message::Ack)?,
                }
            }
            Message::SetAnnouncerTamper(t) => {
                announcer.set_tamper(t);
                reply(owner_link.as_ref(), tag, Message::Ack)?;
            }
            Message::Ping { seq } => {
                // The announcer carries no row assignment; generation 0.
                reply(
                    owner_link.as_ref(),
                    tag,
                    Message::Pong { seq, generation: 0 },
                )?;
            }
            Message::Shutdown => return Ok(()),
            _ => {
                // Reply-direction messages; ignore defensively.
            }
        }
    }
}

/// Communication report for one query (or cumulatively, since start).
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    /// Per-server `(bytes, messages)` sent by the owner side.
    pub to_servers: Vec<(u64, u64)>,
    /// Per-server `(bytes, messages)` received from servers.
    pub from_servers: Vec<(u64, u64)>,
    /// Per-server, per-shard `(bytes, messages)` the domain router sent
    /// to its shard workers.
    pub to_shards: Vec<Vec<(u64, u64)>>,
    /// Per-server, per-shard `(bytes, messages)` the shard workers sent
    /// back to their router.
    pub from_shards: Vec<Vec<(u64, u64)>>,
    /// `(bytes, messages)` the owner side sent to the announcer
    /// (announce requests + tamper control).
    pub to_announcer: (u64, u64),
    /// `(bytes, messages)` the announcer sent to the owner side
    /// (announcements).
    pub from_announcer: (u64, u64),
    /// Per additive server, `(bytes, messages)` it sent to the announcer
    /// over its dedicated upload link (the blinded wide matrices that the
    /// owner side must never see — and, by these meters, observably never
    /// carries).
    pub server_to_announcer: Vec<(u64, u64)>,
    /// Rounds served from the PSI-round cache (0 with the cache off).
    pub cache_hits: u64,
    /// Cache-eligible rounds that executed for real.
    pub cache_misses: u64,
    /// Cache entries dropped as stale (version mismatch or tamper).
    pub cache_invalidations: u64,
    /// Per-node liveness from the control plane's keep-alive prober
    /// (empty on statically wired clusters — only elastic clusters built
    /// through [`crate::registry::ClusterListener`] have a registry).
    pub nodes: Vec<crate::registry::NodeHealth>,
    /// Shard-worker failovers the registry has healed so far.
    pub failovers: u64,
    /// Failovers that healed as metadata-only replica promotions (no
    /// upload-log replay; a subset of `failovers`).
    pub promotions: u64,
}

impl NetReport {
    /// Number of server domains.
    pub fn servers(&self) -> usize {
        self.to_servers.len()
    }

    /// Shards behind each domain (0 for a report from an unsharded build).
    pub fn shards_per_server(&self) -> usize {
        self.to_shards.first().map_or(0, Vec::len)
    }

    /// `(bytes, messages)` the owner side sent to server `k`.
    pub fn owner_to_server(&self, k: usize) -> (u64, u64) {
        self.to_servers.get(k).copied().unwrap_or_default()
    }

    /// `(bytes, messages)` server `k` sent to the owner side.
    pub fn server_to_owner(&self, k: usize) -> (u64, u64) {
        self.from_servers.get(k).copied().unwrap_or_default()
    }

    /// `(bytes, messages)` server `k`'s router exchanged with shard `s`,
    /// as `(to_shard, from_shard)`.
    pub fn shard_link(&self, k: usize, s: usize) -> ((u64, u64), (u64, u64)) {
        let to = self
            .to_shards
            .get(k)
            .and_then(|v| v.get(s))
            .copied()
            .unwrap_or_default();
        let from = self
            .from_shards
            .get(k)
            .and_then(|v| v.get(s))
            .copied()
            .unwrap_or_default();
        (to, from)
    }

    /// `(bytes, messages)` additive server `k` sent to the announcer.
    pub fn server_to_announcer(&self, k: usize) -> (u64, u64) {
        self.server_to_announcer.get(k).copied().unwrap_or_default()
    }

    /// Total bytes over the three announcer edges (owner control link,
    /// both directions, plus the two server upload links).
    pub fn announcer_bytes(&self) -> u64 {
        self.to_announcer.0
            + self.from_announcer.0
            + self
                .server_to_announcer
                .iter()
                .map(|&(bytes, _)| bytes)
                .sum::<u64>()
    }

    /// Total bytes over every owner↔server link (both directions; shard
    /// links are internal to a domain and announcer edges are separate,
    /// so neither is double-counted here).
    pub fn total_bytes(&self) -> u64 {
        self.to_servers
            .iter()
            .chain(&self.from_servers)
            .map(|&(bytes, _)| bytes)
            .sum()
    }
}

impl std::fmt::Display for NetReport {
    /// One line per server domain, with the per-shard fan-out indented:
    ///
    /// ```text
    /// server 0: to 12.3KB/4 msgs, from 98.1KB/4 msgs
    ///   shard 0: to 3.1KB/4, from 24.5KB/4
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn kb(bytes: u64) -> String {
            if bytes >= 10_000 {
                format!("{:.1}KB", bytes as f64 / 1000.0)
            } else {
                format!("{bytes}B")
            }
        }
        for k in 0..self.servers() {
            let (tb, tm) = self.owner_to_server(k);
            let (fb, fm) = self.server_to_owner(k);
            writeln!(
                f,
                "server {k}: to {}/{tm} msgs, from {}/{fm} msgs",
                kb(tb),
                kb(fb)
            )?;
            for s in 0..self.to_shards.get(k).map_or(0, Vec::len) {
                let ((stb, stm), (sfb, sfm)) = self.shard_link(k, s);
                writeln!(
                    f,
                    "  shard {s}: to {}/{stm}, from {}/{sfm}",
                    kb(stb),
                    kb(sfb)
                )?;
            }
        }
        let (tb, tm) = self.to_announcer;
        let (fb, fm) = self.from_announcer;
        writeln!(
            f,
            "announcer: to {}/{tm} msgs, from {}/{fm} msgs",
            kb(tb),
            kb(fb)
        )?;
        for (k, &(bytes, msgs)) in self.server_to_announcer.iter().enumerate() {
            writeln!(f, "  server {k} -> announcer: {}/{msgs}", kb(bytes))?;
        }
        writeln!(
            f,
            "cache: hits={} misses={} invalidations={}",
            self.cache_hits, self.cache_misses, self.cache_invalidations
        )?;
        if !self.nodes.is_empty() {
            writeln!(
                f,
                "control plane: failovers={} promotions={}",
                self.failovers, self.promotions
            )?;
            for n in &self.nodes {
                writeln!(f, "  {n}")?;
            }
        }
        Ok(())
    }
}

/// Owner-side handle to a running cluster.
pub struct NetCluster {
    pub(crate) setup: Setup,
    pub(crate) links: Vec<Arc<MuxLink>>,
    pub(crate) announcer_link: Arc<MuxLink>,
    pub(crate) handles: Vec<JoinHandle<Result<(), NetError>>>,
    pub(crate) server_stats: Vec<Arc<LinkStats>>,
    pub(crate) to_shard_stats: Vec<Vec<Arc<LinkStats>>>,
    pub(crate) from_shard_stats: Vec<Vec<Arc<LinkStats>>>,
    pub(crate) from_announcer_stats: Arc<LinkStats>,
    pub(crate) server_to_announcer_stats: Vec<Arc<LinkStats>>,
    pub(crate) shards: usize,
    pub(crate) threads: u32,
    pub(crate) dispatches: AtomicU64,
    /// Wide-round sequence counter: one fresh number per round that
    /// carries a `MaxCombine`, echoed by servers and quoted at announce
    /// time so the announcer can reject stale or crossed uploads.
    pub(crate) wide_seq: AtomicU64,
    /// Query-id counter: one fresh id per query (and per ad-hoc facade
    /// round-trip), tagging all of that query's wire traffic so the
    /// per-link pumps can route interleaved replies.
    pub(crate) query_seq: AtomicU64,
    /// Admission layer: bounded in-flight window + per-owner fair
    /// queueing over [`NetCluster::execute_as`].
    pub(crate) admission: Admission,
    /// Cross-query PSI-round cache (see [`prism_protocol::cache`]),
    /// enabled by [`NetCluster::enable_cache`]: `execute` wraps the
    /// cluster's own `ServerExec` in a `CachedExec` bound to this state,
    /// and the upload/tamper facades keep it honest. Shared (`Arc`) so an
    /// elastic cluster's registry can dirty a healed domain's entries
    /// from the prober thread.
    pub(crate) cache: Option<Arc<PsiRoundCache>>,
    /// The control plane, present on elastic clusters built through
    /// [`crate::registry::ClusterListener`]: node health, keep-alive
    /// probing, and shard failover.
    pub(crate) registry: Option<crate::registry::NodeRegistry>,
    /// Cumulative failover count already attributed to some round's
    /// [`ExecMeters`] — `tagged_round` swaps this against the registry's
    /// live counter so each failover lands in exactly one round's meters
    /// even when queries interleave.
    pub(crate) failover_mark: AtomicU64,
}

pub(crate) fn transport_err(e: NetError) -> ProtocolError {
    ProtocolError::Transport(e.to_string())
}

/// One query's view of a [`NetCluster`]: the same links, every round
/// tagged with this query's id. This is what [`NetCluster::execute_as`]
/// hands the engine, so N engines can run plans over one cluster
/// concurrently — the per-link pumps route each reply to the issuing
/// query's slot.
struct QueryView<'a> {
    net: &'a NetCluster,
    id: QueryId,
}

impl ServerExec for QueryView<'_> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        self.net.tagged_round(self.id, cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        self.net.tagged_announce(self.id, cmd, seq, threads)
    }

    fn meters(&self) -> ExecMeters {
        self.net.meters()
    }
}

impl ServerExec for NetCluster {
    /// Ad-hoc rounds on the cluster itself (conformance tests drive this
    /// directly) mint a fresh correlation id per round — within one
    /// caller rounds are sequential, so a throwaway id pairs replies just
    /// as well as a per-query one.
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        self.tagged_round(self.fresh_query_id(), cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        self.tagged_announce(self.fresh_query_id(), cmd, seq, threads)
    }

    fn meters(&self) -> ExecMeters {
        ExecMeters {
            shard_dispatches: self.dispatches.load(Ordering::Relaxed),
            failovers: self.registry.as_ref().map_or(0, |r| r.failovers()),
            ..ExecMeters::default()
        }
    }
}

/// A factory producing connected link pairs for one topology edge.
type LinkPair = (Box<dyn Link>, Box<dyn Link>);

impl NetCluster {
    /// Start servers on threads connected by in-process channels
    /// (one shard per domain).
    pub fn start_local(setup: Setup) -> NetCluster {
        Self::start_local_sharded(setup, 1)
    }

    /// Start servers on threads connected by in-process channels, each
    /// domain backed by `shards` row-range shard workers.
    pub fn start_local_sharded(setup: Setup, shards: usize) -> NetCluster {
        Self::start_with(setup, shards, || {
            let (a, b) = channel_pair();
            Ok((Box::new(a) as Box<dyn Link>, Box::new(b) as Box<dyn Link>))
        })
        .expect("channel links cannot fail to connect")
    }

    /// Start servers on threads behind loopback TCP sockets (one shard
    /// per domain).
    pub fn start_tcp(setup: Setup) -> std::io::Result<NetCluster> {
        Self::start_tcp_sharded(setup, 1)
    }

    /// Start servers behind loopback TCP, each domain backed by `shards`
    /// row-range shard workers — the router↔worker edges are TCP too, so
    /// this models shards living in separate processes.
    pub fn start_tcp_sharded(setup: Setup, shards: usize) -> std::io::Result<NetCluster> {
        Self::start_with(setup, shards, || {
            let (a, b) = TcpLink::loopback_pair()?;
            Ok((Box::new(a) as Box<dyn Link>, Box::new(b) as Box<dyn Link>))
        })
    }

    /// Default bound on queries in flight at once (see
    /// [`NetCluster::set_admission_window`]).
    pub const DEFAULT_ADMISSION_WINDOW: usize = 16;

    /// Mint a fresh query id (unique for this cluster's lifetime).
    fn fresh_query_id(&self) -> QueryId {
        self.query_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// One owner↔servers round on behalf of query `id`: begin a
    /// completion slot per participating link, ship every command tagged,
    /// then collect every reply from the slots — one round-trip however
    /// many servers take part, interleaving freely with other queries'
    /// rounds on the same links.
    fn tagged_round(
        &self,
        id: QueryId,
        cmds: Vec<(usize, ServerCmd)>,
    ) -> prism_protocol::Result<RoundOutcome> {
        let t0 = Instant::now();
        let mut round_seq = None;
        let mut dispatches = 0u64;
        let mut pendings = Vec::with_capacity(cmds.len());
        for (s, cmd) in cmds {
            let msg = match cmd {
                ServerCmd::Run(batch) => {
                    if self.shards > 1 {
                        dispatches += self.shards as u64;
                    }
                    Message::RunBatch(batch)
                }
                // Wide rounds are parameter-only and answered at the
                // domain front-end, so they never fan out to shards. One
                // sequence number covers the whole round (both servers).
                ServerCmd::MaxCombine { uploads, threads } => {
                    let seq = *round_seq
                        .get_or_insert_with(|| self.wide_seq.fetch_add(1, Ordering::Relaxed) + 1);
                    Message::MaxCombine {
                        uploads,
                        threads,
                        seq,
                    }
                }
                ServerCmd::AssembleFpos { claims, threads } => {
                    Message::AssembleFpos { claims, threads }
                }
                ServerCmd::RangeVersions => Message::RangeVersionProbe,
            };
            let link = &self.links[s];
            // Register the slot before sending: the reply must never race
            // its own registration.
            pendings.push((s, link.begin(id).map_err(transport_err)?));
            link.send(id, msg).map_err(transport_err)?;
        }
        if dispatches > 0 {
            self.dispatches.fetch_add(dispatches, Ordering::Relaxed);
        }
        let mut replies = Vec::with_capacity(pendings.len());
        for (s, pending) in &pendings {
            match pending.recv().map_err(transport_err)? {
                Message::Outputs(outs) => replies.push(ServerReply::Vectors(outs)),
                Message::Versions(v) => replies.push(ServerReply::Versions(v)),
                Message::WideForwarded { rows, width, seq } => {
                    // The receipt must belong to the round we just issued
                    // (a desynchronized server cannot smuggle an old one).
                    if round_seq != Some(seq) {
                        return Err(ProtocolError::Transport(
                            "server acknowledged the wrong wide round".into(),
                        ));
                    }
                    replies.push(ServerReply::WideForwarded { rows, width, seq })
                }
                Message::Fpos(rows) => replies.push(ServerReply::Fpos(rows)),
                // A routed round hit a dead shard worker: surface the
                // crash by name (distinct from a tamper-shaped wrong
                // answer, which arrives well-formed and fails
                // verification instead).
                Message::NodeDown { node } => {
                    return Err(transport_err(NetError::NodeDown {
                        node: format!("d{s}/s{node}"),
                    }))
                }
                _ => {
                    return Err(ProtocolError::Transport(
                        "unexpected reply to a query round".into(),
                    ))
                }
            }
        }
        // Attribute any failovers healed since the last round to this
        // one: swap against the registry's live counter so each failover
        // lands in exactly one round's meters under interleaving.
        let failovers = match &self.registry {
            Some(registry) => {
                let cur = registry.failovers();
                let prev = self.failover_mark.swap(cur, Ordering::Relaxed);
                cur.saturating_sub(prev)
            }
            None => 0,
        };
        Ok(RoundOutcome {
            replies,
            cost: t0.elapsed(),
            meters: ExecMeters {
                shard_dispatches: dispatches,
                failovers,
                ..ExecMeters::default()
            },
        })
    }

    /// One announce round-trip on behalf of query `id` over the
    /// owner↔announcer control link.
    fn tagged_announce(
        &self,
        id: QueryId,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        let t0 = Instant::now();
        let msg = Message::AnnounceRun {
            cmd,
            seq,
            threads: threads as u32,
        };
        match self
            .announcer_link
            .request(id, msg)
            .map_err(transport_err)?
        {
            Message::AnnounceReply(reply) => Ok((reply, t0.elapsed())),
            // `Ack` is the announcer's failure marker (missing or crossed
            // uploads, mismatched matrices).
            _ => Err(ProtocolError::MalformedResponse(
                "announcer could not produce an announcement",
            )),
        }
    }

    /// Shared topology builder: per server domain, one owner↔router link
    /// plus `shards` router↔worker links from `mk_pair`, a router thread
    /// running [`domain_loop`] over a fixed-membership [`DomainState`]
    /// and one [`worker_loop`] per shard.
    /// An unsharded domain (`shards == 1`) skips the router entirely —
    /// the worker node (holding the full domain parameters) sits directly
    /// behind the owner link, exactly the pre-sharding topology, with no
    /// extra hop or re-encode.
    ///
    /// The announcer is the fourth node: its thread runs
    /// [`announcer_loop`] behind one owner↔announcer control link plus
    /// one upload link from each *additive* server domain (the Shamir-only
    /// server never participates in wide rounds and gets none — the
    /// topology, like the no-server-links property, enforces the role by
    /// construction).
    fn start_with(
        setup: Setup,
        shards: usize,
        mk_pair: impl Fn() -> std::io::Result<LinkPair>,
    ) -> std::io::Result<NetCluster> {
        let mut links: Vec<Arc<MuxLink>> = Vec::new();
        let mut handles = Vec::new();
        let mut server_stats = Vec::new();
        let mut to_shard_stats = Vec::new();
        let mut from_shard_stats = Vec::new();
        let mut actual_shards = 1;

        // Server→announcer edges, one per additive server.
        let mut server_ann_ends: Vec<Option<Box<dyn Link>>> = Vec::new();
        let mut announcer_server_ends: Vec<Box<dyn Link>> = Vec::new();
        let mut server_to_announcer_stats = Vec::new();
        for _ in 0..ADDITIVE_SERVERS {
            let (server_end, announcer_end) = mk_pair()?;
            server_to_announcer_stats.push(server_end.stats());
            server_ann_ends.push(Some(server_end));
            announcer_server_ends.push(announcer_end);
        }

        for k in 0..SHAMIR_SERVERS {
            let params = setup.servers[k].clone();
            // Fixed membership: one worker per range, generation 0, no
            // prober — the registry's elastic domains run the same router.
            let mut domain = DomainState::new(params.clone(), shards, 1);
            actual_shards = domain.plan.shard_count();
            let (owner_end, server_end) = mk_pair()?;
            server_stats.push(server_end.stats());
            let ann_link = server_ann_ends.get_mut(k).and_then(Option::take);

            if actual_shards == 1 {
                handles.push(std::thread::spawn(move || {
                    server_loop(params, server_end, ann_link)
                }));
                to_shard_stats.push(Vec::new());
                from_shard_stats.push(Vec::new());
                links.push(MuxLink::new(Arc::from(owner_end)));
                continue;
            }

            let mut to_stats = Vec::new();
            let mut from_stats = Vec::new();
            for spec in domain.plan.specs().to_vec() {
                let (router_side, worker_side) = mk_pair()?;
                to_stats.push(router_side.stats());
                from_stats.push(worker_side.stats());
                let wp = params.clone();
                handles.push(std::thread::spawn(move || {
                    worker_loop(wp, Arc::from(worker_side), spec, 0, Tamper::Honest)
                }));
                let label = format!("d{k}/s{}", spec.index);
                let link = MuxLink::new_labeled(Arc::from(router_side), label.clone());
                domain
                    .workers
                    .push(WorkerSlot::new(spec.index as u64, label, link, spec.index));
            }
            to_shard_stats.push(to_stats);
            from_shard_stats.push(from_stats);
            let domain = Arc::new(RwLock::new(domain));
            let ann_link = ann_link.map(Arc::from);
            handles.push(std::thread::spawn(move || {
                domain_loop(server_end, domain, ann_link)
            }));
            links.push(MuxLink::new(Arc::from(owner_end)));
        }

        // The announcer node.
        let (announcer_link, announcer_end) = mk_pair()?;
        let from_announcer_stats = announcer_end.stats();
        let ap = setup.announcer.clone();
        handles.push(std::thread::spawn(move || {
            announcer_loop(ap, announcer_end, announcer_server_ends)
        }));

        Ok(NetCluster {
            setup,
            links,
            announcer_link: MuxLink::new(Arc::from(announcer_link)),
            handles,
            server_stats,
            to_shard_stats,
            from_shard_stats,
            from_announcer_stats,
            server_to_announcer_stats,
            shards: actual_shards,
            threads: 1,
            dispatches: AtomicU64::new(0),
            wide_seq: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
            admission: Admission::new(Self::DEFAULT_ADMISSION_WINDOW),
            cache: None,
            registry: None,
            failover_mark: AtomicU64::new(0),
        })
    }

    /// Enable the cross-query PSI-round cache: every subsequent
    /// [`NetCluster::execute`] runs over a `CachedExec` decorator sharing
    /// one [`PsiRoundCache`], so a repeat eligible query against an
    /// unchanged store completes its round 1 with **zero** server
    /// round-trips (observable in [`NetReport`]'s per-link meters).
    /// Results are bit-identical with the cache on or off; verified
    /// operations always hit the servers.
    pub fn enable_cache(&mut self) {
        let cache = self
            .cache
            .get_or_insert_with(|| Arc::new(PsiRoundCache::new()));
        if let Some(registry) = &self.registry {
            // Failovers re-outsource rows from the prober thread; the
            // registry must be able to dirty the healed domain's entries.
            registry.attach_cache(Arc::clone(cache));
        }
    }

    /// The PSI-round cache, when enabled.
    pub fn cache(&self) -> Option<&PsiRoundCache> {
        self.cache.as_deref()
    }

    /// The cluster control plane (node health, keep-alive, failover) —
    /// present only on elastic clusters built through
    /// [`crate::registry::ClusterListener`].
    pub fn registry(&self) -> Option<&crate::registry::NodeRegistry> {
        self.registry.as_ref()
    }

    /// Set the per-server thread count sent with queries.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads as u32;
    }

    /// Bound the number of queries in flight at once (default
    /// [`NetCluster::DEFAULT_ADMISSION_WINDOW`]); waiting queries queue
    /// FIFO per owner and owners are drained round-robin. Takes effect
    /// for queries admitted after the call.
    pub fn set_admission_window(&mut self, window: usize) {
        self.admission = Admission::new(window);
    }

    /// Queries currently holding an admission permit.
    pub fn queries_in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// Replies the owner-side link pumps dropped because no query claimed
    /// them (unknown or finished `QueryId`, or an untagged reply). Always
    /// 0 in a healthy cluster — conformance tests pin that.
    pub fn rejected_replies(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.rejected())
            .chain(std::iter::once(self.announcer_link.rejected()))
            .sum()
    }

    /// One acknowledged control round-trip over a multiplexed link.
    fn acked(&self, link: &Arc<MuxLink>, msg: Message) -> Result<(), NetError> {
        match link.request(self.fresh_query_id(), msg)? {
            Message::Ack => Ok(()),
            Message::NodeDown { node } => Err(NetError::NodeDown {
                node: format!("shard worker {node}"),
            }),
            _ => Err(NetError::Disconnected),
        }
    }

    /// Row-range shard workers behind each server domain.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The initiator's setup (owner view etc.).
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// Upload one owner's column to one server: a one-column
    /// [`NetCluster::bulk_upload`].
    pub fn upload(
        &self,
        server: usize,
        owner: usize,
        column: Column,
        data: Vec<u64>,
    ) -> Result<(), NetError> {
        self.bulk_upload(server, owner, vec![(column, data)])
    }

    /// Upload every column of one owner's per-server table in a single
    /// round-trip (the Phase-1 mirror of the batched round 2) — one
    /// [`Message::BulkUpload`] instead of one message per column.
    pub fn bulk_upload(
        &self,
        server: usize,
        owner: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<(), NetError> {
        // Dirty the cache before awaiting the ack: the server may apply
        // the store even when the reply is lost, and note_upload's
        // contract is "was (or may have been) written".
        if let Some(cache) = &self.cache {
            cache.note_upload(server);
        }
        // The registry replays recorded uploads when it re-fans a healed
        // domain; record before sending so a crash mid-upload can only
        // replay too much (stores are overwrite-idempotent), never too
        // little.
        if let Some(registry) = &self.registry {
            registry.record_upload(server, owner, &columns);
        }
        self.acked(
            &self.links[server],
            Message::BulkUpload {
                owner: owner as u32,
                columns,
            },
        )
    }

    /// Adopt a grown [`Setup`] (from [`Setup::grow`]) ahead of the delta
    /// uploads that extend the cluster to it. The finish-permutation
    /// extension blocks a [`NetCluster::delta_upload`] ships are cut from
    /// this setup, so adopt first, then upload each server's delta.
    pub fn adopt_setup(&mut self, grown: Setup) {
        self.setup = grown;
    }

    /// Append rows to one owner's columns on one server starting at
    /// global row `start` — growth when `start` is the current domain
    /// size, a latest-epoch re-touch otherwise. Ships the adopted
    /// setup's finish-permutation extension blocks alongside the rows;
    /// the server ignores them on a re-touch, so they are always sent.
    pub fn delta_upload(
        &self,
        server: usize,
        owner: usize,
        start: usize,
        columns: Vec<(Column, Vec<u64>)>,
    ) -> Result<(), NetError> {
        // Same ordering discipline as `bulk_upload`: dirty the cache and
        // record the delta in the registry before awaiting the ack.
        if let Some(cache) = &self.cache {
            cache.note_upload(server);
        }
        if let Some(registry) = &self.registry {
            registry.record_delta(server, owner, start, &columns);
        }
        let sp = &self.setup.servers[server];
        let ext = |p: &Permutation| {
            p.tail_block(start)
                .map(|b| b.as_map().to_vec())
                .unwrap_or_default()
        };
        self.acked(
            &self.links[server],
            Message::DeltaUpload {
                owner: owner as u32,
                start: start as u64,
                columns,
                pf_s1_ext: ext(&sp.pf_s1),
                pf_s2_ext: ext(&sp.pf_s2),
            },
        )
    }

    /// Attach a tampering behaviour to server φ (tests): the domain
    /// applies it to every subsequent merged output, exactly like the
    /// in-memory cluster.
    pub fn set_tamper(&self, server: usize, tamper: Tamper) -> Result<(), NetError> {
        if let Some(cache) = &self.cache {
            cache.note_tamper(server, tamper.is_honest());
        }
        self.acked(&self.links[server], Message::SetTamper(tamper))
    }

    /// Attach a tampering behaviour to the announcer node (tests), over
    /// its owner-side control link: applied to every subsequent max/median
    /// announcement, exactly like the in-memory cluster.
    pub fn set_announcer_tamper(&self, tamper: AnnouncerTamper) -> Result<(), NetError> {
        self.acked(&self.announcer_link, Message::SetAnnouncerTamper(tamper))
    }

    /// Run any engine round plan over this cluster's links (through the
    /// PSI-round cache decorator, when enabled), attributed to owner 0
    /// for admission purposes. Safe to call from many threads at once:
    /// each call is one admitted, query-tagged session over the shared
    /// links.
    pub fn execute<P: Operation>(&self, plan: &P) -> Result<(P::Output, QueryStats), ClusterError> {
        self.execute_as(0, plan)
    }

    /// [`NetCluster::execute`] on behalf of `owner`: waits for an
    /// admission slot (bounded window, per-owner round-robin fairness),
    /// mints one `QueryId`, and runs the whole plan tagged with it — so N
    /// concurrent callers interleave rounds over one set of persistent
    /// links with exact per-query accounting.
    pub fn execute_as<P: Operation>(
        &self,
        owner: u32,
        plan: &P,
    ) -> Result<(P::Output, QueryStats), ClusterError> {
        self.run_as(owner, plan, None)
    }

    /// The one exec stack every query runs on: an admission slot for
    /// `owner`, a freshly tagged [`QueryView`], the PSI-round cache
    /// decorator when enabled, and the engine — scoped to the global row
    /// window `(start, len)` when one is given.
    fn run_as<P: Operation>(
        &self,
        owner: u32,
        plan: &P,
        range: Option<(u64, u64)>,
    ) -> Result<(P::Output, QueryStats), ClusterError> {
        let _permit = self.admission.acquire(owner);
        let view = QueryView {
            net: self,
            id: self.fresh_query_id(),
        };
        let cached = self.cache.as_deref().map(|c| CachedExec::new(&view, c));
        let exec: &dyn ServerExec = match &cached {
            Some(c) => c,
            None => &view,
        };
        let engine = Engine::new(&exec, &self.setup.owner).with_threads(self.threads as usize);
        match range {
            Some((start, len)) => engine.with_range(start, len).run(plan),
            None => engine.run(plan),
        }
        .map_err(ClusterError::Protocol)
    }

    /// PSI over the uploaded OK columns.
    pub fn psi(&self) -> Result<Vec<u64>, ClusterError> {
        Ok(self.execute(&plans::Psi)?.0.fop)
    }

    /// PSI with verification.
    pub fn psi_verified(&self) -> Result<Vec<u64>, ClusterError> {
        Ok(self.execute(&plans::PsiVerified)?.0.fop)
    }

    /// PSU membership.
    pub fn psu(&self) -> Result<Vec<bool>, ClusterError> {
        Ok(self.execute(&plans::Psu)?.0)
    }

    /// PSU with two-copy verification; returns the union size (positions
    /// live in the composed `PF_i` order and are not mapped back).
    pub fn psu_verified(&self) -> Result<usize, ClusterError> {
        let (members, _) = self.execute(&plans::PsuVerified)?;
        Ok(members.iter().filter(|&&m| m).count())
    }

    /// PSI cardinality.
    pub fn psi_count(&self) -> Result<usize, ClusterError> {
        Ok(self.execute(&plans::Count)?.0)
    }

    /// PSI cardinality with two-copy verification.
    pub fn psi_count_verified(&self) -> Result<usize, ClusterError> {
        Ok(self.execute(&plans::CountVerified)?.0)
    }

    /// PSI sum over aggregation attribute `attr`.
    pub fn psi_sum(&self, attr: u8, seed: u64) -> Result<Vec<u64>, ClusterError> {
        Ok(self.execute(&plans::Sum { attr, seed })?.0)
    }

    /// PSI sum with permuted-copy verification.
    pub fn psi_sum_verified(&self, attr: u8, seed: u64) -> Result<Vec<u64>, ClusterError> {
        Ok(self.execute(&plans::SumVerified { attr, seed })?.0)
    }

    /// PSI average over attribute `attr`.
    pub fn psi_avg(&self, attr: u8, seed: u64) -> Result<Vec<average::AvgCell>, ClusterError> {
        Ok(self.execute(&plans::Average { attr, seed })?.0)
    }

    /// PSI maximum (§6.3, all three rounds, announcer node included) with
    /// built-in verification. `values[j]` is owner j's per-cell maxima
    /// column — owner-side data that never left the owners, so the caller
    /// supplies it (the Phase-1 uploads carry only shares).
    pub fn psi_max(
        &self,
        values: &[&[u64]],
        seed: u64,
    ) -> Result<(Vec<MaxCell>, Vec<Vec<bool>>), ClusterError> {
        let plan = plans::Max {
            values: values.to_vec(),
            table: None,
            seed,
            cell_chunk: plans::DEFAULT_CELL_CHUNK,
        };
        Ok(self.execute(&plan)?.0)
    }

    /// PSI median (§6.4) over the announcer node. `values[j]` is owner
    /// j's per-cell *sums* column (§6.4 aggregates each owner's summed
    /// contribution).
    pub fn psi_median(
        &self,
        values: &[&[u64]],
        seed: u64,
    ) -> Result<Vec<MedianCell>, ClusterError> {
        let plan = plans::Median {
            values: values.to_vec(),
            table: None,
            seed,
            cell_chunk: plans::DEFAULT_CELL_CHUNK,
        };
        Ok(self.execute(&plan)?.0)
    }

    /// Several aggregations over one PSI in a single round-2 round-trip
    /// (one `RunBatch` message per server); results are identical to the
    /// corresponding sequential queries.
    pub fn psi_query_batch(
        &self,
        batch: &plans::QueryBatch,
        seed: u64,
    ) -> Result<(Vec<plans::AggResult>, QueryStats), ClusterError> {
        self.execute(&plans::Batch { batch, seed })
    }

    /// [`NetCluster::psi_query_batch`] scoped to the global row range
    /// `[start, start+len)` — rounds ship only that slice and the cache
    /// keys on the range, so queries over untouched ranges stay warm
    /// across delta uploads elsewhere in the domain.
    pub fn psi_query_batch_range(
        &self,
        batch: &plans::QueryBatch,
        seed: u64,
        range: (u64, u64),
    ) -> Result<(Vec<plans::AggResult>, QueryStats), ClusterError> {
        self.run_as(0, &plans::Batch { batch, seed }, Some(range))
    }

    /// Snapshot of bytes/messages sent in each direction, including the
    /// per-shard fan-out inside every domain.
    pub fn report(&self) -> NetReport {
        let snap = |stats: &[Arc<LinkStats>]| -> Vec<(u64, u64)> {
            stats.iter().map(|s| s.snapshot()).collect()
        };
        NetReport {
            to_servers: self.links.iter().map(|l| l.stats().snapshot()).collect(),
            from_servers: snap(&self.server_stats),
            to_shards: self.to_shard_stats.iter().map(|s| snap(s)).collect(),
            from_shards: self.from_shard_stats.iter().map(|s| snap(s)).collect(),
            to_announcer: self.announcer_link.stats().snapshot(),
            from_announcer: self.from_announcer_stats.snapshot(),
            server_to_announcer: snap(&self.server_to_announcer_stats),
            cache_hits: self.cache.as_deref().map_or(0, PsiRoundCache::hits),
            cache_misses: self.cache.as_deref().map_or(0, PsiRoundCache::misses),
            cache_invalidations: self
                .cache
                .as_deref()
                .map_or(0, PsiRoundCache::invalidations),
            nodes: self
                .registry
                .as_ref()
                .map(|r| r.node_health())
                .unwrap_or_default(),
            failovers: self.registry.as_ref().map_or(0, |r| r.failovers()),
            promotions: self.registry.as_ref().map_or(0, |r| r.promotions()),
        }
    }

    /// Orderly shutdown; joins router, worker, and announcer threads.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        // Stop the keep-alive prober and attach dispatcher first so
        // teardown-closed links are not mistaken for node deaths.
        if let Some(registry) = self.registry.take() {
            registry.stop();
        }
        for link in &self.links {
            link.send_raw(&Message::Shutdown)?;
        }
        self.announcer_link.send_raw(&Message::Shutdown)?;
        for h in self.handles.drain(..) {
            h.join().map_err(|_| NetError::Disconnected)??;
        }
        Ok(())
    }
}

/// Errors from cluster queries.
#[derive(Debug)]
pub enum ClusterError {
    /// Transport failure.
    Net(NetError),
    /// Protocol failure (including verification failures and transport
    /// errors surfaced through the engine as
    /// [`ProtocolError::Transport`]).
    Protocol(ProtocolError),
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<ProtocolError> for ClusterError {
    fn from(e: ProtocolError) -> Self {
        ClusterError::Protocol(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Net(e) => write!(f, "network: {e}"),
            ClusterError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}
