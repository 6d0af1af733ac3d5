//! The schedule-exploring invariant auditor.
//!
//! A *schedule* is a sequence of operations — captures, movements,
//! churn, crashes, clock advances — encoded as `u64` words so that a
//! failing schedule prints as a runnable reproducer (see
//! [`format_schedule`] / the `AUDIT_SCHEDULE` replay test). The auditor
//! [`run_schedule`]s a word list against a small faulty network while
//! maintaining a [`MovementLog`] oracle, then checks global invariants
//! after quiescence:
//!
//! * **Chord agreement** — the ring's successor/predecessor/finger state
//!   is converged.
//! * **Index uniqueness & placement** — no object is indexed at two
//!   gateways; every entry sits in a shard whose prefix matches the
//!   object's hash, hosted by the DHT owner of that prefix, and is
//!   reachable through the Data-Triangle ancestor chain.
//! * **Locate agreement** — for objects untouched by crashes, `L(o,t)`
//!   equals the oracle; crash-tainted objects may degrade but never
//!   fabricate a site the object did not visit.
//! * **IOP chain consistency** — walking the distributed doubly-linked
//!   list from the gateway's latest link visits only true oracle visits
//!   in order, with mutually consistent `from`/`to` links.
//! * **Trace agreement** — `TR(o)` is a subsequence of the oracle path;
//!   exact (and flagged complete) for every untainted object: a
//!   reordered delivery is spliced into the chain, not dropped.
//!
//! Crashes lose data by design (no replication in the paper), so
//! crash-affected objects are *tainted* and held to the weaker
//! "degrade detectably, never silently lie" standard. Graceful leaves
//! migrate their index shards, so they taint traces (repository gone)
//! but not locates.
//!
//! WAN runs ([`AuditConfig::regions`] = 3) add region-cut partition
//! faults ([`Op::RegionCut`]/[`Op::RegionHeal`]): cross-pair traffic
//! parks in the geo plane and releases in send order at the heal, any
//! cut still open is healed before the final quiescence, and the
//! post-heal state is held to full oracle exactness plus replica
//! reconvergence (every holder's copy byte-identical to its primary).

use moods::{MovementLog, ObjectId, Path, SiteId};
use peertrack::config::RetryConfig;
use peertrack::store::IndexEntry;
use peertrack::{Builder, GroupConfig, IndexingMode, TraceableNetwork};
use simnet::fault::FaultConfig;
use simnet::time::ms;
use simnet::{FaultStats, MsgClass, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Simulated-time gap between consecutive schedule arrivals; small
/// enough that several captures share one indexing window (`T_MAX`).
const STEP: SimTime = SimTime::from_millis(35);
/// Window width used by the audit harness.
const T_MAX: SimTime = ms(150);
/// Window object bound.
const N_MAX: usize = 8;
/// Delegation threshold — tiny, so schedules exercise Data Triangles.
const DELEGATE_THRESHOLD: usize = 6;
/// Minimum prefix length (`Lmin`).
const L_MIN: usize = 3;

/// One schedule operation. Selectors are resolved modulo the live
/// population when the op executes, so every word is valid in every
/// state (shrinking never produces an inapplicable schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Capture a fresh object at the selected live site.
    Capture {
        /// Live-site selector.
        site: u16,
    },
    /// Re-capture an existing object (selector modulo created objects)
    /// at the selected live site — a movement.
    MoveObj {
        /// Live-site selector.
        site: u16,
        /// Created-object selector.
        obj: u16,
    },
    /// Run the simulation forward by `ms` milliseconds.
    Advance {
        /// Milliseconds to advance.
        ms: u16,
    },
    /// Drain the event queue completely.
    Quiesce,
    /// A new organization joins.
    Join,
    /// A schedule-joined organization leaves gracefully.
    Leave {
        /// Joined-site selector.
        sel: u16,
    },
    /// A schedule-joined organization crashes mid-protocol.
    Crash {
        /// Joined-site selector.
        sel: u16,
    },
    /// A live organization (founder or joined, never the query origin)
    /// fails **permanently** — the kill-forever fault model. With
    /// replication on ([`AuditConfig::replicas`] = K) the first K−1
    /// kills of a run are true kills whose data must stay fully
    /// readable (no taints: locate/trace are held to oracle
    /// exactness); past the budget, or with replication off, the op
    /// degrades to an ordinary crash with crash taints.
    Kill {
        /// Live-site selector (resolved over live sites except 0).
        sel: u16,
    },
    /// Locate an existing object (selector modulo created objects) from
    /// founder 0 mid-schedule. Queries are read-only, so this never
    /// perturbs the protocol — but with a locate cache configured
    /// ([`AuditConfig::locate_cache`]) it warms the cache, so later
    /// movements must invalidate the cached answer for the
    /// post-quiescence invariants to hold.
    Locate {
        /// Created-object selector.
        obj: u16,
    },
    /// Sever the WAN links between two regions (selectors modulo the
    /// region count; equal selections resolve to adjacent regions).
    /// Cross-pair messages park in the geo plane — never drop — and
    /// release in send order at the heal. No-op without a geo plane
    /// ([`AuditConfig::regions`] = 0) or when the pair is already cut.
    /// While any cut is active, churn ops (`Join`/`Leave`/`Crash`/
    /// `Kill`) degrade to no-ops: ring stabilization across an active
    /// partition is out of scope for the audited protocol.
    RegionCut {
        /// First region selector.
        a: u16,
        /// Second region selector.
        b: u16,
    },
    /// Heal one active region cut (selector modulo the active cuts, in
    /// cut order). No-op when no cut is active. Whatever the schedule
    /// does, the harness heals **all** remaining cuts before the final
    /// quiescence — the post-heal invariants (oracle-exact answers,
    /// reconverged replicas) are always checked on a connected network.
    RegionHeal {
        /// Active-cut selector.
        sel: u16,
    },
}

const TAG_CAPTURE: u64 = 0;
const TAG_MOVE: u64 = 1;
const TAG_ADVANCE: u64 = 2;
const TAG_QUIESCE: u64 = 3;
const TAG_JOIN: u64 = 4;
const TAG_LEAVE: u64 = 5;
const TAG_CRASH: u64 = 6;
const TAG_KILL: u64 = 7;
const TAG_LOCATE: u64 = 8;
const TAG_REGION_CUT: u64 = 9;
const TAG_REGION_HEAL: u64 = 10;
const NUM_TAGS: u64 = 11;

/// Encode an op as one schedule word: tag in the top byte, operands in
/// the low 32 bits.
pub fn encode(op: Op) -> u64 {
    let (tag, a, b) = match op {
        Op::Capture { site } => (TAG_CAPTURE, site, 0),
        Op::MoveObj { site, obj } => (TAG_MOVE, site, obj),
        Op::Advance { ms } => (TAG_ADVANCE, ms, 0),
        Op::Quiesce => (TAG_QUIESCE, 0, 0),
        Op::Join => (TAG_JOIN, 0, 0),
        Op::Leave { sel } => (TAG_LEAVE, sel, 0),
        Op::Crash { sel } => (TAG_CRASH, sel, 0),
        Op::Kill { sel } => (TAG_KILL, sel, 0),
        Op::Locate { obj } => (TAG_LOCATE, obj, 0),
        Op::RegionCut { a, b } => (TAG_REGION_CUT, a, b),
        Op::RegionHeal { sel } => (TAG_REGION_HEAL, sel, 0),
    };
    (tag << 56) | ((a as u64) << 16) | b as u64
}

/// Decode a schedule word. Total: every `u64` decodes to some op (tag
/// taken modulo the op count), so arbitrary words are runnable.
pub fn decode(word: u64) -> Op {
    let a = ((word >> 16) & 0xFFFF) as u16;
    let b = (word & 0xFFFF) as u16;
    match (word >> 56) % NUM_TAGS {
        TAG_CAPTURE => Op::Capture { site: a },
        TAG_MOVE => Op::MoveObj { site: a, obj: b },
        TAG_ADVANCE => Op::Advance { ms: a },
        TAG_QUIESCE => Op::Quiesce,
        TAG_JOIN => Op::Join,
        TAG_LEAVE => Op::Leave { sel: a },
        TAG_CRASH => Op::Crash { sel: a },
        TAG_KILL => Op::Kill { sel: a },
        TAG_LOCATE => Op::Locate { obj: a },
        TAG_REGION_CUT => Op::RegionCut { a, b },
        _ => Op::RegionHeal { sel: a },
    }
}

/// Per-op shrink candidates, most aggressive first: destructive ops
/// simplify toward benign ones, selectors and durations toward zero.
pub fn shrink_word(word: u64) -> Vec<u64> {
    let halves = |v: u16| -> Vec<u16> {
        let mut out = Vec::new();
        if v > 0 {
            out.push(0);
        }
        if v / 2 != 0 && v / 2 != v {
            out.push(v / 2);
        }
        out
    };
    let ops = match decode(word) {
        Op::Capture { site } => halves(site).into_iter().map(|site| Op::Capture { site }).collect(),
        Op::MoveObj { site, obj } => {
            let mut c = vec![Op::Capture { site }];
            c.extend(halves(site).into_iter().map(|site| Op::MoveObj { site, obj }));
            c.extend(halves(obj).into_iter().map(|obj| Op::MoveObj { site, obj }));
            c
        }
        Op::Advance { ms } => halves(ms).into_iter().map(|ms| Op::Advance { ms }).collect(),
        Op::Quiesce | Op::Join => Vec::new(),
        Op::Leave { sel } => {
            let mut c = vec![Op::Capture { site: sel }];
            c.extend(halves(sel).into_iter().map(|sel| Op::Leave { sel }));
            c
        }
        Op::Crash { sel } => {
            let mut c = vec![Op::Leave { sel }, Op::Capture { site: sel }];
            c.extend(halves(sel).into_iter().map(|sel| Op::Crash { sel }));
            c
        }
        Op::Kill { sel } => {
            let mut c = vec![Op::Crash { sel }, Op::Leave { sel }, Op::Capture { site: sel }];
            c.extend(halves(sel).into_iter().map(|sel| Op::Kill { sel }));
            c
        }
        Op::Locate { obj } => {
            let mut c = vec![Op::Quiesce];
            c.extend(halves(obj).into_iter().map(|obj| Op::Locate { obj }));
            c
        }
        Op::RegionCut { a, b } => {
            let mut c = vec![Op::Quiesce];
            c.extend(halves(a).into_iter().map(|a| Op::RegionCut { a, b }));
            c.extend(halves(b).into_iter().map(|b| Op::RegionCut { a, b }));
            c
        }
        Op::RegionHeal { sel } => {
            let mut c = vec![Op::Quiesce];
            c.extend(halves(sel).into_iter().map(|sel| Op::RegionHeal { sel }));
            c
        }
    };
    ops.into_iter().map(encode).filter(|&w| w != word).collect()
}

/// Render a word list as the comma-separated decimal form the
/// `AUDIT_SCHEDULE` environment variable accepts.
pub fn format_schedule(words: &[u64]) -> String {
    words.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Parse the `AUDIT_SCHEDULE` form (decimal words separated by commas
/// and/or whitespace).
pub fn parse_schedule(s: &str) -> Result<Vec<u64>, String> {
    s.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<u64>().map_err(|e| format!("bad schedule word {t:?}: {e}")))
        .collect()
}

/// Human-readable decoding of a schedule.
pub fn describe(words: &[u64]) -> String {
    let ops: Vec<Op> = words.iter().map(|&w| decode(w)).collect();
    format!("{ops:?}")
}

/// Harness configuration for one audited run.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Founding sites (never churned by the schedule; queries originate
    /// at founder 0).
    pub founders: usize,
    /// Engine seed (node identities, latencies).
    pub seed: u64,
    /// Fault-plane seed (independent, see `simnet::fault`).
    pub fault_seed: u64,
    /// Uniform per-delivery drop probability.
    pub drop: f64,
    /// Retry layer configuration.
    pub retry: RetryConfig,
    /// Replication factor K (1 disables replication; then every
    /// [`Op::Kill`] degrades to a crash).
    pub replicas: usize,
    /// Per-site locate-answer cache capacity (`None` = caching off).
    /// Caching must be invisible to every invariant: the auditor holds
    /// cached runs to the same oracle exactness as uncached ones.
    pub locate_cache: Option<usize>,
    /// WAN regions: `0` runs without a geo plane (the seed's uniform
    /// network — every pre-existing configuration); `3` installs the
    /// `geo::Topology::wan3` latency plane over the founders and
    /// enables [`Op::RegionCut`]/[`Op::RegionHeal`]. Other values are
    /// rejected at run time (the audit topology is the canonical
    /// three-region WAN).
    pub regions: usize,
}

impl AuditConfig {
    /// A lossy network with the retry layer off — the configuration the
    /// auditor demonstrates violations against.
    pub fn lossy_no_retries(drop: f64) -> AuditConfig {
        AuditConfig {
            founders: 6,
            seed: 0xA0D1_7E57,
            fault_seed: 0xFA01_7501,
            drop,
            retry: RetryConfig::disabled(),
            replicas: 1,
            locate_cache: None,
            regions: 0,
        }
    }

    /// The same configuration with a locate-answer cache of `capacity`
    /// entries per site.
    pub fn with_locate_cache(self, capacity: usize) -> AuditConfig {
        AuditConfig { locate_cache: Some(capacity), ..self }
    }

    /// A fault-free network with K-successor replication on — the
    /// configuration the kill-forever invariant is asserted against.
    pub fn replicated(k: usize) -> AuditConfig {
        AuditConfig { replicas: k, ..AuditConfig::lossy_no_retries(0.0) }
    }

    /// A fault-free, K-replicated network over the three-region WAN
    /// topology — the configuration the region-cut/heal recovery
    /// invariants (oracle-exact answers, reconverged replicas after
    /// heal + quiescence) are asserted against.
    pub fn wan(k: usize) -> AuditConfig {
        AuditConfig { regions: 3, ..AuditConfig::replicated(k) }
    }

    /// The same lossy network with the retry layer on (longer attempt
    /// budget than the default: schedules are short, so the harness can
    /// afford patience in exchange for delivery certainty).
    pub fn lossy_with_retries(drop: f64) -> AuditConfig {
        AuditConfig {
            retry: RetryConfig {
                enabled: true,
                timeout: ms(120),
                backoff: 2,
                max_attempts: 8,
            },
            ..AuditConfig::lossy_no_retries(drop)
        }
    }
}

/// What one audited run observed.
#[derive(Debug)]
pub struct AuditReport {
    /// Invariant violations, sorted; empty means the run is clean.
    pub violations: Vec<String>,
    /// Objects the schedule created.
    pub objects: usize,
    /// Ops that actually executed (selector no-ops excluded).
    pub ops_applied: usize,
    /// Protocol anomaly counters at the end of the run.
    pub anomalies: peertrack::world::Anomalies,
    /// Fault-plane delivery statistics.
    pub fault_stats: FaultStats,
    /// Retransmissions charged to `MsgClass::Retrans`.
    pub retrans_messages: u64,
    /// Acks charged to `MsgClass::Ack`.
    pub ack_messages: u64,
    /// Query completeness over all oracle objects: (exact locates,
    /// total locates).
    pub locate_agreement: (usize, usize),
}

fn audit_mode() -> IndexingMode {
    IndexingMode::Group(GroupConfig {
        l_min: L_MIN,
        t_max: T_MAX,
        n_max: N_MAX,
        delegate_threshold: Some(DELEGATE_THRESHOLD),
        ..GroupConfig::default()
    })
}

fn live_sites_of(net: &TraceableNetwork) -> Vec<SiteId> {
    net.world.sites.iter().filter(|s| s.alive).map(|s| s.site).collect()
}

fn audit_object(n: u64) -> ObjectId {
    ObjectId::from_raw(format!("audit-object-{n}").as_bytes())
}

/// Objects whose data the imminent crash of `victim` may take down:
/// entries hosted at the victim, objects whose prefix (at any plausible
/// triangle depth) is owned by the victim (in-flight index updates die
/// with it), and objects whose latest oracle visit is at the victim
/// (an unflushed window or the live repository is lost).
fn crash_taints(
    net: &TraceableNetwork,
    oracle: &MovementLog,
    created: &[ObjectId],
    victim: SiteId,
    taint: &mut HashSet<ObjectId>,
) {
    let vidx = victim.0 as usize;
    let victim_chord = net.world.sites[vidx].chord_id;
    for shard in net.world.sites[vidx].gateway.prefixes.values() {
        taint.extend(shard.entries.keys().copied());
    }
    taint.extend(net.world.sites[vidx].gateway.objects.keys().copied());

    // Replica copies the victim holds for already-dead primaries are
    // load-bearing: they are the read fallback that keeps the dead
    // site's records answerable, and a crash can erase the last copy
    // (a kill inside the K−1 budget re-establishes placement; a crash
    // by definition loses data). Everything in them is suspect.
    for (primary, store) in &net.world.sites[vidx].replica_iop {
        if !net.world.sites[primary.0 as usize].alive {
            taint.extend(store.iter().map(|(o, _)| o));
        }
    }

    let max_len = net
        .world
        .sites
        .iter()
        .filter(|s| s.alive)
        .flat_map(|s| s.gateway.prefixes.keys().map(|p| p.len()))
        .max()
        .unwrap_or(0)
        .max(net.current_lp())
        + 1;
    for &o in created {
        if oracle.visits(o).last().map(|v| v.site) == Some(victim) {
            taint.insert(o);
            continue;
        }
        for l in L_MIN..=max_len {
            let key = ids::Prefix::of_id(&o.id(), l).gateway_id();
            if net.ring().successor_of(&key) == Some(victim_chord) {
                taint.insert(o);
                break;
            }
        }
    }
}

/// Execute a schedule and audit the invariants after quiescence.
pub fn run_schedule(cfg: &AuditConfig, words: &[u64]) -> AuditReport {
    run_schedule_inner(cfg, words, None)
}

/// [`run_schedule`] with a causal trace recorded from the first event.
/// Tracing is observation-only: the report is identical to the
/// untraced run's (a test asserts this), so a violation found blind
/// can be re-run traced to obtain its causal slice.
pub fn run_schedule_traced(cfg: &AuditConfig, words: &[u64]) -> (AuditReport, obs::SharedRecorder) {
    let rec = obs::SharedRecorder::new();
    let report = run_schedule_inner(cfg, words, Some(rec.clone()));
    (report, rec)
}

fn run_schedule_inner(
    cfg: &AuditConfig,
    words: &[u64],
    trace: Option<obs::SharedRecorder>,
) -> AuditReport {
    let mut builder = Builder::new()
        .sites(cfg.founders)
        .seed(cfg.seed)
        .mode(audit_mode())
        .replicas(cfg.replicas.max(1))
        .faults(FaultConfig::uniform_drop(cfg.fault_seed, cfg.drop))
        .retry(cfg.retry);
    if let Some(cap) = cfg.locate_cache {
        builder = builder.locate_cache(cap);
    }
    let regions: u16 = match cfg.regions {
        0 => 0,
        3 => {
            builder = builder.geo(simnet::GeoConfig::new(
                cfg.seed ^ 0x6E0_0C07,
                geo::Topology::wan3(cfg.founders),
            ));
            3
        }
        r => panic!("audit topology is the three-region WAN (regions = 0 or 3, got {r})"),
    };
    if let Some(rec) = trace {
        builder = builder.trace_sink(Box::new(rec));
    }
    let mut net = builder.build();

    let mut oracle = MovementLog::new();
    let mut created: Vec<ObjectId> = Vec::new();
    let mut joined: Vec<SiteId> = Vec::new();
    let mut dead: BTreeSet<SiteId> = BTreeSet::new();
    let mut killed: BTreeSet<SiteId> = BTreeSet::new();
    let mut cuts: Vec<(u16, u16)> = Vec::new();
    let mut locate_taint: HashSet<ObjectId> = HashSet::new();
    let mut clock = SimTime::ZERO;
    let mut next_obj = 0u64;
    let mut ops_applied = 0usize;

    for &word in words {
        let op = decode(word);
        if !cuts.is_empty()
            && matches!(op, Op::Join | Op::Leave { .. } | Op::Crash { .. } | Op::Kill { .. })
        {
            // Churn no-ops while a region cut is active (see
            // `Op::RegionCut`) — stabilization across a partition is
            // out of scope.
            continue;
        }
        match op {
            Op::Capture { site } | Op::MoveObj { site, .. } => {
                let targets = live_sites_of(&net);
                let s = targets[site as usize % targets.len()];
                let o = match op {
                    Op::Capture { .. } => {
                        let o = audit_object(next_obj);
                        next_obj += 1;
                        created.push(o);
                        o
                    }
                    Op::MoveObj { obj, .. } => {
                        if created.is_empty() {
                            continue;
                        }
                        created[obj as usize % created.len()]
                    }
                    _ => unreachable!(),
                };
                clock = clock.max(net.now()) + STEP;
                net.schedule_capture(clock, s, vec![o]);
                oracle.record(o, s, clock);
            }
            Op::Advance { ms: m } => {
                let deadline = net.now() + SimTime::from_millis(m as u64);
                net.run_until(deadline);
            }
            Op::Quiesce => net.run_until_quiescent(),
            Op::Join => joined.push(net.join_site()),
            Op::Leave { sel } => {
                if joined.is_empty() {
                    continue;
                }
                let s = joined.swap_remove(sel as usize % joined.len());
                dead.insert(s);
                net.leave_site(s);
            }
            Op::Crash { sel } => {
                if joined.is_empty() {
                    continue;
                }
                let s = joined.swap_remove(sel as usize % joined.len());
                crash_taints(&net, &oracle, &created, s, &mut locate_taint);
                dead.insert(s);
                net.crash_site(s);
            }
            Op::Kill { sel } => {
                // Any live site except the query origin may be lost.
                let targets: Vec<SiteId> =
                    live_sites_of(&net).into_iter().filter(|s| s.0 != 0).collect();
                if targets.is_empty() {
                    continue;
                }
                let s = targets[sel as usize % targets.len()];
                joined.retain(|&j| j != s);
                if cfg.replicas > 1 && killed.len() < cfg.replicas - 1 {
                    // A true kill, inside the tolerated budget: the data
                    // must survive through replicas, so NO taints — the
                    // invariants hold this run to oracle exactness.
                    killed.insert(s);
                    net.kill_forever(s);
                } else {
                    // Budget exhausted (a K-th loss can erase a whole
                    // replica set) or replication off: degrade to the
                    // crash fault model, taints and all.
                    crash_taints(&net, &oracle, &created, s, &mut locate_taint);
                    dead.insert(s);
                    net.crash_site(s);
                }
            }
            Op::Locate { obj } => {
                if created.is_empty() {
                    continue;
                }
                // Read-only: warms the locate cache (when configured) so
                // later movements exercise epoch invalidation; the
                // answer itself is audited after quiescence.
                let o = created[obj as usize % created.len()];
                let _ = net.locate(SiteId(0), o, net.now());
            }
            Op::RegionCut { a, b } => {
                if regions == 0 {
                    continue;
                }
                let (ra, rb) = (a % regions, b % regions);
                let (ra, rb) = if ra == rb { (ra, (ra + 1) % regions) } else { (ra, rb) };
                let key = (ra.min(rb), ra.max(rb));
                if cuts.contains(&key) {
                    continue;
                }
                net.region_cut(key.0, key.1);
                cuts.push(key);
            }
            Op::RegionHeal { sel } => {
                if cuts.is_empty() {
                    continue;
                }
                let key = cuts.remove(sel as usize % cuts.len());
                net.region_heal(key.0, key.1);
            }
        }
        ops_applied += 1;
    }
    // Whatever the schedule left severed, the post-run invariants are
    // checked on a healed, quiesced network — that is the recovery
    // contract: after heal + quiescence, answers are oracle-exact and
    // replicas reconverge.
    if !cuts.is_empty() {
        net.region_heal_all();
        cuts.clear();
    }
    net.run_until_quiescent();

    let violations = check_invariants(&mut net, &oracle, &created, &dead, &locate_taint);
    let anomalies = net.anomalies();
    let exact = violations.iter().filter(|v| v.starts_with("locate")).count();
    AuditReport {
        objects: created.len(),
        ops_applied,
        anomalies,
        fault_stats: net.fault_stats().expect("audit networks always have a fault plane"),
        retrans_messages: net.metrics().messages_of(MsgClass::Retrans),
        ack_messages: net.metrics().messages_of(MsgClass::Ack),
        locate_agreement: (created.len().saturating_sub(exact), created.len()),
        violations,
    }
}

/// How many violating objects [`causal_slice`] dumps chains for.
const MAX_SLICE_OBJECTS: usize = 3;

/// Render the causal slice of a traced run for each object named in the
/// violations: the ancestor chain of the object's last causally-tagged
/// delivery, one event per line. Printed next to the `AUDIT_SCHEDULE`
/// reproducer so a failing schedule arrives with its own diagnosis —
/// *which* message chain produced the stale/missing state, and where
/// along it the drop or reordering happened.
pub fn causal_slice(rec: &obs::Recorder, report: &AuditReport) -> String {
    let view = obs::TraceView::new(rec.events());
    let mut out = String::new();
    let mut dumped = 0usize;
    for n in 0..report.objects as u64 {
        if dumped == MAX_SLICE_OBJECTS {
            out.push_str("(further violating objects elided)\n");
            break;
        }
        let o = audit_object(n);
        let needle = format!("{o:?}");
        if !report.violations.iter().any(|v| v.contains(&needle)) {
            continue;
        }
        dumped += 1;
        let tag = peertrack::spans::object_tag(o);
        let tagged = view.filter_ctx(tag);
        match view.last_delivery_for_ctx(tag) {
            Some(ev) => {
                out.push_str(&format!(
                    "causal slice for {o:?} (ctx={tag:#018x}, {} tagged event(s)):\n",
                    tagged.len()
                ));
                out.push_str(&view.format_chain(ev.id));
            }
            None => {
                out.push_str(&format!(
                    "no tagged events for {o:?} (ctx={tag:#018x}) — \
                     its updates never entered the network\n"
                ));
            }
        }
    }
    if dumped == 0 {
        out.push_str("no violation names a created object; last events of the trace:\n");
        for ev in rec.events().iter().rev().take(8).rev() {
            out.push_str(&obs::format_event(ev));
            out.push('\n');
        }
    }
    out
}

/// `(site, arrived)` pairs of `sub` appear in `full` in order.
fn is_subsequence(sub: &Path, full: &Path) -> bool {
    let mut it = full.iter();
    sub.iter().all(|v| it.any(|f| f.site == v.site && f.arrived == v.arrived))
}

fn check_invariants(
    net: &mut TraceableNetwork,
    oracle: &MovementLog,
    created: &[ObjectId],
    dead: &BTreeSet<SiteId>,
    locate_taint: &HashSet<ObjectId>,
) -> Vec<String> {
    let mut v: Vec<String> = Vec::new();

    // I1 — Chord successor/predecessor/finger agreement.
    if let Err(e) = net.ring().check_converged() {
        v.push(format!("chord: overlay not converged after quiescence: {e}"));
    }

    // I7 — anti-entropy reconvergence: after quiescence (and, in WAN
    // runs, after every region cut healed) each live primary's replica
    // holders carry byte-identical copies. Vacuous with replication
    // off; every replicated audit configuration is loss-free, so
    // divergence here is a real protocol failure, not dropped sync.
    v.extend(net.world.replica_divergence());

    // I2/I3 — scan every live gateway: uniqueness, prefix match,
    // DHT placement, Data-Triangle reachability.
    let lp = net.current_lp();
    let mut holders: HashMap<ObjectId, Vec<(SiteId, ids::Prefix, IndexEntry)>> = HashMap::new();
    for s in net.world.sites.iter().filter(|s| s.alive) {
        if !s.gateway.objects.is_empty() {
            v.push(format!("index: site {} holds individual-mode entries in group mode", s.site));
        }
        for (p, shard) in &s.gateway.prefixes {
            for (o, e) in &shard.entries {
                holders.entry(*o).or_default().push((s.site, *p, *e));
            }
        }
    }
    for &o in created {
        let Some(entries) = holders.get_mut(&o) else { continue };
        entries.sort_by_key(|(s, p, _)| (s.0, *p));
        if entries.len() > 1 {
            v.push(format!(
                "index: object {o:?} locatable at {} gateways: {:?}",
                entries.len(),
                entries.iter().map(|(s, p, _)| (s.0, p.as_bit_string())).collect::<Vec<_>>()
            ));
        }
        for (site, p, _) in entries.iter() {
            if !p.matches(&o.id()) {
                v.push(format!("index: entry for {o:?} filed under foreign prefix {p}"));
            }
            let holder_chord = net.world.sites[site.0 as usize].chord_id;
            if net.ring().successor_of(&p.gateway_id()) != Some(holder_chord) {
                v.push(format!("index: shard {p} at site {site} is not the DHT owner's"));
            }
            // Triangle reachability, mirroring the §IV-A.3 lookup: the
            // descent below Lp only follows contiguously-hosted child
            // prefixes, while the ascent probes every hosted ancestor
            // down to Lmin (the entry's own level must be hosted).
            if p.len() < L_MIN {
                v.push(format!("triangle: entry for {o:?} at {p} below Lmin"));
            } else if p.len() > lp {
                for l in lp + 1..=p.len() {
                    if !net.world.is_hosted(&ids::Prefix::of_id(&o.id(), l)) {
                        v.push(format!(
                            "triangle: entry for {o:?} at {p} unreachable — level-{l} of the \
                             descent chain is not hosted"
                        ));
                        break;
                    }
                }
            } else if p.len() < lp && !net.world.is_hosted(p) {
                v.push(format!(
                    "triangle: entry for {o:?} at {p} invisible to the ascent — shard not \
                     registered as hosted"
                ));
            }
        }
    }

    let origin = SiteId(0);

    for &o in created {
        let truth = oracle.visits(o);
        let latest = truth.last().expect("created objects have a visit");
        let trace_tainted = truth.iter().any(|t| dead.contains(&t.site));
        let loc_tainted = locate_taint.contains(&o);

        // I4 — locate agreement. A reordered delivery is spliced into
        // the chain, so every untainted object is held to exactness.
        let (loc, stats) = net.locate(origin, o, net.now());
        if !loc_tainted {
            if loc != Some(latest.site) {
                v.push(format!(
                    "locate: {o:?} answered {loc:?}, oracle says {:?} (complete={})",
                    latest.site, stats.complete
                ));
            }
            let n = holders.get(&o).map_or(0, Vec::len);
            if n == 1 {
                let (_, _, e) = holders[&o][0];
                if (e.site, e.time) != (latest.site, latest.arrived) {
                    v.push(format!(
                        "index: stale entry for {o:?}: ({}, {}) vs oracle ({}, {})",
                        e.site, e.time, latest.site, latest.arrived
                    ));
                }
            } else if n == 0 {
                v.push(format!("index: {o:?} has no gateway entry anywhere"));
            }
        } else if let Some(site) = loc {
            // Tainted: degraded answers are acceptable, fabricated ones
            // are not — the site must appear in the true history.
            if stats.complete && !truth.iter().any(|t| t.site == site) {
                v.push(format!("locate: degraded {o:?} fabricated site {site}"));
            }
        }

        // I6 — trace agreement.
        let (path, tstats) = net.trace(origin, o, SimTime::ZERO, SimTime::INFINITY);
        if !is_subsequence(&path, &truth) {
            v.push(format!(
                "trace: {o:?} returned visits outside the oracle path: {path:?} vs {truth:?}"
            ));
        }
        if !trace_tainted && !loc_tainted {
            if path != truth {
                v.push(format!("trace: {o:?} incomplete: {path:?} vs oracle {truth:?}"));
            } else if !tstats.complete {
                v.push(format!("trace: {o:?} exact yet flagged incomplete"));
            }
        }

        // I5 — IOP doubly-linked chain walk from the gateway's latest
        // link, structural (bypasses the query layer).
        if !trace_tainted && !loc_tainted {
            if let Some(entries) = holders.get(&o) {
                if let [(_, _, e)] = entries.as_slice() {
                    walk_iop_chain(net, o, e, &truth, &mut v);
                }
            }
        }
    }

    v.sort();
    v.dedup();
    v
}

/// I5 for one object: its chain from the gateway's entry, read through
/// the replica-aware lookup — a record at a permanently killed site must
/// still be readable from its holders; that IS the kill-forever
/// invariant.
fn walk_iop_chain(
    net: &TraceableNetwork,
    o: ObjectId,
    entry: &IndexEntry,
    truth: &Path,
    v: &mut Vec<String>,
) {
    v.extend(crate::chain_violations(o, entry.link(), truth, |cur| {
        net.world.iop_record(cur.site, o, cur.time).ok_or_else(|| {
            if net.world.sites[cur.site.0 as usize].alive {
                format!("iop: chain of {o:?} dangles — no record at ({}, {})", cur.site, cur.time)
            } else {
                format!(
                    "iop: chain of untainted {o:?} leads to dead site {} and no replica \
                     holds its record at {}",
                    cur.site, cur.time
                )
            }
        })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip_through_codec() {
        let ops = [
            Op::Capture { site: 7 },
            Op::MoveObj { site: 3, obj: 12 },
            Op::Advance { ms: 450 },
            Op::Quiesce,
            Op::Join,
            Op::Leave { sel: 2 },
            Op::Crash { sel: 5 },
            Op::Kill { sel: 4 },
            Op::Locate { obj: 9 },
            Op::RegionCut { a: 0, b: 2 },
            Op::RegionHeal { sel: 1 },
        ];
        for op in ops {
            assert_eq!(decode(encode(op)), op);
        }
    }

    #[test]
    fn every_word_decodes_to_something_runnable() {
        for w in [0u64, u64::MAX, 0x0700_0000_0000_0000, 12345, 1 << 57, 9 << 56, 10 << 56] {
            let _ = decode(w); // total function: must not panic
        }
    }

    #[test]
    fn schedule_string_roundtrip() {
        let words = vec![encode(Op::Capture { site: 1 }), encode(Op::Join), encode(Op::Quiesce)];
        let s = format_schedule(&words);
        assert_eq!(parse_schedule(&s).unwrap(), words);
        assert!(parse_schedule("12, junk").is_err());
        assert!(describe(&words).contains("Capture"));
    }

    #[test]
    fn shrink_moves_toward_benign_ops() {
        let crash = encode(Op::Crash { sel: 4 });
        let c = shrink_word(crash);
        assert!(c.contains(&encode(Op::Leave { sel: 4 })), "crash demotes to leave");
        assert!(c.contains(&encode(Op::Capture { site: 4 })), "and to a capture");
        assert!(!c.contains(&crash));
        assert!(shrink_word(encode(Op::Quiesce)).is_empty());
        let kill = encode(Op::Kill { sel: 3 });
        assert!(shrink_word(kill).contains(&encode(Op::Crash { sel: 3 })), "kill demotes to crash");
        let locate = encode(Op::Locate { obj: 6 });
        assert!(shrink_word(locate).contains(&encode(Op::Quiesce)), "locate demotes to quiesce");
        let cut = encode(Op::RegionCut { a: 2, b: 1 });
        assert!(shrink_word(cut).contains(&encode(Op::Quiesce)), "cut demotes to quiesce");
        let heal = encode(Op::RegionHeal { sel: 2 });
        assert!(shrink_word(heal).contains(&encode(Op::Quiesce)), "heal demotes to quiesce");
    }

    #[test]
    fn cached_schedule_audits_clean_and_matches_uncached() {
        // A schedule that locates mid-stream (warming the cache), then
        // moves the located objects (forcing epoch invalidation), then
        // churns (forcing the wholesale clear). With the cache on, every
        // invariant must hold exactly as with it off — and since queries
        // are read-only, the two runs' protocol traffic is identical.
        let cfg = AuditConfig { drop: 0.0, ..AuditConfig::lossy_no_retries(0.0) };
        let words: Vec<u64> = [
            Op::Capture { site: 0 },
            Op::Capture { site: 2 },
            Op::Capture { site: 4 },
            Op::Quiesce,
            Op::Locate { obj: 0 },
            Op::Locate { obj: 1 },
            Op::MoveObj { site: 1, obj: 0 },
            Op::MoveObj { site: 3, obj: 1 },
            Op::Quiesce,
            Op::Locate { obj: 0 },
            Op::Join,
            Op::MoveObj { site: 5, obj: 2 },
            Op::Quiesce,
            Op::Locate { obj: 2 },
        ]
        .into_iter()
        .map(encode)
        .collect();
        let plain = run_schedule(&cfg, &words);
        let cached = run_schedule(&cfg.with_locate_cache(8), &words);
        assert_eq!(cached.violations, Vec::<String>::new());
        assert_eq!(plain.violations, cached.violations);
        assert_eq!(plain.fault_stats, cached.fault_stats);
        assert_eq!(plain.anomalies, cached.anomalies);
        assert_eq!(plain.objects, cached.objects);
        assert_eq!(plain.ops_applied, cached.ops_applied);
    }

    #[test]
    fn kill_forever_schedule_audits_clean() {
        // The tentpole invariant, always asserted: with K = 3 and a
        // fault-free plane, a schedule that loses two sites permanently
        // — with writes landing before, between, and after the kills —
        // must still audit oracle-exact, with zero anomalies. No taints
        // are granted for kills inside the K−1 budget.
        let cfg = AuditConfig::replicated(3);
        let words: Vec<u64> = [
            Op::Capture { site: 0 },
            Op::Capture { site: 2 },
            Op::Capture { site: 4 },
            Op::MoveObj { site: 1, obj: 0 },
            Op::MoveObj { site: 3, obj: 1 },
            Op::MoveObj { site: 5, obj: 2 },
            Op::Quiesce,
            Op::Join,
            Op::Kill { sel: 1 },
            Op::MoveObj { site: 2, obj: 0 },
            Op::MoveObj { site: 4, obj: 2 },
            Op::Quiesce,
            Op::Kill { sel: 2 },
            Op::MoveObj { site: 0, obj: 1 },
            Op::Quiesce,
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.objects, 3);
        assert_eq!(report.anomalies, peertrack::world::Anomalies::default());
        assert_eq!(report.fault_stats.dropped, 0);
    }

    #[test]
    fn region_cut_then_heal_schedule_audits_clean() {
        // The WAN recovery invariant: writes land before, during, and
        // after a region cut (updates crossing the severed pair park
        // and release in order at the heal); after heal + quiescence
        // every answer is oracle-exact and the replica sets have
        // reconverged (I7).
        let cfg = AuditConfig::wan(3);
        let words: Vec<u64> = [
            Op::Capture { site: 0 },
            Op::Capture { site: 2 },
            Op::Capture { site: 4 },
            Op::Quiesce,
            Op::RegionCut { a: 0, b: 1 },
            Op::MoveObj { site: 1, obj: 0 },
            Op::MoveObj { site: 3, obj: 1 },
            Op::Advance { ms: 500 },
            Op::Locate { obj: 0 },
            Op::RegionHeal { sel: 0 },
            Op::Quiesce,
            Op::MoveObj { site: 5, obj: 2 },
            Op::Quiesce,
            // A second cut left open: the harness heals it before the
            // final quiescence and the invariants must still hold.
            Op::RegionCut { a: 1, b: 2 },
            Op::MoveObj { site: 0, obj: 1 },
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.objects, 3);
        assert_eq!(report.anomalies, peertrack::world::Anomalies::default());
        assert_eq!(report.fault_stats.dropped, 0, "cuts park, never drop");
    }

    #[test]
    fn churn_is_inert_during_an_active_cut() {
        // Join/Leave/Crash/Kill words inside a cut window no-op: the
        // run must stay clean and end with exactly the founders alive.
        let cfg = AuditConfig::wan(3);
        let words: Vec<u64> = [
            Op::Capture { site: 1 },
            Op::Quiesce,
            Op::RegionCut { a: 0, b: 2 },
            Op::Join,
            Op::Kill { sel: 0 },
            Op::Crash { sel: 0 },
            Op::MoveObj { site: 4, obj: 0 },
            Op::RegionHeal { sel: 0 },
            Op::Quiesce,
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        // The three churn words did not execute.
        assert_eq!(report.ops_applied, words.len() - 3);
    }

    #[test]
    fn region_ops_are_inert_without_a_geo_plane() {
        // The same words with regions = 0 must run (cut/heal decode
        // and no-op) and stay clean — arbitrary fuzz words containing
        // region tags remain runnable against every configuration.
        let cfg = AuditConfig { drop: 0.0, ..AuditConfig::lossy_no_retries(0.0) };
        let words: Vec<u64> = [
            Op::Capture { site: 1 },
            Op::RegionCut { a: 0, b: 1 },
            Op::MoveObj { site: 3, obj: 0 },
            Op::RegionHeal { sel: 0 },
            Op::Quiesce,
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.ops_applied, words.len() - 2, "cut and heal no-opped");
    }

    #[test]
    fn kill_without_replication_degrades_to_crash() {
        // With replicas = 1 a Kill is a Crash: the run may degrade but
        // must do so *detectably* — the auditor grants the usual crash
        // taints and still forbids fabricated answers.
        let cfg = AuditConfig { drop: 0.0, ..AuditConfig::lossy_no_retries(0.0) };
        let words: Vec<u64> = [
            Op::Capture { site: 1 },
            Op::MoveObj { site: 3, obj: 0 },
            Op::Quiesce,
            Op::Kill { sel: 0 },
            Op::Quiesce,
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
    }

    #[test]
    fn clean_schedule_on_fault_free_network_audits_clean() {
        // Sanity: zero drop probability, no churn — the auditor must
        // report nothing (the invariants hold on the clean path).
        let cfg = AuditConfig {
            drop: 0.0,
            ..AuditConfig::lossy_no_retries(0.0)
        };
        let words: Vec<u64> = [
            Op::Capture { site: 0 },
            Op::Capture { site: 3 },
            Op::MoveObj { site: 1, obj: 0 },
            Op::Quiesce,
            Op::Join,
            Op::MoveObj { site: 4, obj: 1 },
            Op::Advance { ms: 400 },
            Op::Leave { sel: 0 },
            Op::MoveObj { site: 2, obj: 0 },
        ]
        .into_iter()
        .map(encode)
        .collect();
        let report = run_schedule(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.objects, 2);
        assert_eq!(report.fault_stats.dropped, 0);
        assert_eq!(report.retrans_messages, 0, "retries off: no retransmissions");
        assert_eq!(report.ack_messages, 0, "retries off: no acks");
    }

    #[test]
    fn tracing_is_observation_only() {
        // The same lossy, churning schedule run blind and run traced
        // must produce the same report — the trace sink sees every
        // event but perturbs none (no RNG draws, no reordering).
        let cfg = AuditConfig::lossy_with_retries(0.1);
        let words: Vec<u64> = [
            Op::Capture { site: 0 },
            Op::Capture { site: 2 },
            Op::MoveObj { site: 1, obj: 0 },
            Op::Join,
            Op::MoveObj { site: 3, obj: 1 },
            Op::Advance { ms: 300 },
            Op::Crash { sel: 0 },
            Op::MoveObj { site: 2, obj: 0 },
            Op::Quiesce,
        ]
        .into_iter()
        .map(encode)
        .collect();
        let blind = run_schedule(&cfg, &words);
        let (traced, rec) = run_schedule_traced(&cfg, &words);
        assert_eq!(blind.violations, traced.violations);
        assert_eq!(blind.fault_stats, traced.fault_stats);
        assert_eq!(blind.retrans_messages, traced.retrans_messages);
        assert_eq!(blind.ack_messages, traced.ack_messages);
        assert_eq!(blind.objects, traced.objects);

        let rec = rec.borrow();
        assert!(!rec.events().is_empty(), "the trace must have recorded the run");
        // Both movements were tagged with their object's ctx.
        let view = obs::TraceView::new(rec.events());
        let tag = peertrack::spans::object_tag(audit_object(0));
        assert!(!view.filter_ctx(tag).is_empty(), "capture injections carry the object tag");
    }

    #[test]
    fn causal_slice_names_the_violating_object() {
        // Fabricate a report naming object 0 and check the slice engine
        // finds its tagged chain in a real traced run (the run itself is
        // clean — the slice only needs the trace plus the names).
        let cfg = AuditConfig {
            drop: 0.0,
            ..AuditConfig::lossy_no_retries(0.0)
        };
        let words: Vec<u64> =
            [Op::Capture { site: 1 }, Op::MoveObj { site: 2, obj: 0 }, Op::Quiesce]
                .into_iter()
                .map(encode)
                .collect();
        let (mut report, rec) = run_schedule_traced(&cfg, &words);
        assert_eq!(report.violations, Vec::<String>::new());
        report
            .violations
            .push(format!("locate: {:?} answered None (injected)", audit_object(0)));
        let slice = causal_slice(&rec.borrow(), &report);
        assert!(
            slice.contains("causal slice for"),
            "slice must anchor on the named object: {slice}"
        );
        assert!(slice.contains("deliver"), "the chain ends at a delivery: {slice}");
        assert!(slice.contains("cause #"), "chain lines show causal parents: {slice}");
    }
}
