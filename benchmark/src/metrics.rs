//! The benchmark's vocabulary: every metric it may print, with unit,
//! direction and (end to end) the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` is generated from
//! these tables (`run.sh --emit-benchmark-json`) and a test holds the
//! committed file equal to them, so the names cannot drift apart.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// The bound the issue's table gives this kind of metric. Where
    /// `bound` is wider, the host did not let the metric repeat within
    /// the issue's (README, "What did not repeat"); the A/A report says
    /// so row by row.
    pub issue_bound: f64,
}

/// Every workload reports every end-to-end metric (the driver's
/// contract), so the names are generic; what each workload means by
/// them is in `README.md` ("End-to-end metrics").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        issue_bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        issue_bound: 0.10,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        issue_bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        issue_bound: 0.05,
    },
];

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The layer lab: measured in every traced run, whatever the workload.
    Lab,
    /// The traced workload itself; 0 on workloads that do not reach the
    /// layer (which is the point: it shows where a layer does no work).
    Workload,
}

/// A per-layer metric: reported by every workload with `--trace 1`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Repeats exactly for a given seed (a count made of the inputs,
    /// not a measurement of the host).
    pub exact: bool,
}

const fn lab(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Lab,
        exact: false,
    }
}

const fn lab_exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Lab,
        exact: true,
    }
}

const fn work(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Workload,
        exact,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // ids
    lab("ids.object_id_ns", "ns"),
    lab("ids.intern_ns", "ns"),
    // chord
    lab("chord.lookup_ns", "ns"),
    lab_exact("chord.lookup_hops", "count", Lower),
    lab("chord.successor_of_ns", "ns"),
    // peertrack::codec
    lab("codec.encode_ns", "ns"),
    lab("codec.decode_ns", "ns"),
    lab_exact("codec.bytes_per_msg", "bytes", Lower),
    // peertrack::store
    lab("store.capture_ns", "ns"),
    lab("store.set_link_ns", "ns"),
    lab("store.lookup_ns", "ns"),
    lab("store.prefix_upsert_ns", "ns"),
    // peertrack::grouping / window
    lab("grouping.batch_ns_per_obs", "ns"),
    lab_exact("grouping.objs_per_group", "count", Higher),
    lab("window.push_ns", "ns"),
    // peertrack::triangle
    lab("triangle.leaf_for_ns", "ns"),
    lab("triangle.retarget_us", "us"),
    // peertrack::world through TraceableNetwork (lab world: 64 sites)
    lab("world.build_s", "s"),
    lab("world.schedule_s", "s"),
    lab("world.run_s", "s"),
    lab("world.locate_host_us", "us"),
    lab("world.trace_host_us", "us"),
    lab_exact("world.msgs.index-report", "count", Lower),
    lab_exact("world.msgs.iop-update", "count", Lower),
    lab_exact("world.msgs.group-index", "count", Lower),
    lab_exact("world.msgs.refresh", "count", Lower),
    lab_exact("world.msgs.delegate", "count", Lower),
    lab_exact("world.msgs.split-merge", "count", Lower),
    lab_exact("world.msgs.lookup", "count", Lower),
    lab_exact("world.msgs.query", "count", Lower),
    lab_exact("world.msgs.overlay", "count", Lower),
    lab_exact("world.msgs.gossip", "count", Lower),
    lab_exact("world.msgs.ack", "count", Lower),
    lab_exact("world.msgs.retrans", "count", Lower),
    lab_exact("world.anomalies", "count", Lower),
    // peertrack::flat (lab run: 5 000 nodes)
    lab("flat.run_s", "s"),
    lab_exact("flat.events", "count", Lower),
    lab_exact("flat.records", "count", Lower),
    lab_exact("flat.windows", "count", Lower),
    lab_exact("flat.violations", "count", Lower),
    // simnet
    lab("calendar.push_ns", "ns"),
    lab("calendar.pop_ns", "ns"),
    lab("sim.step_ns", "ns"),
    lab("shard.empty_window_us", "us"),
    // durable
    lab("wal.append_ns", "ns"),
    lab("wal.sync_b1_us", "us"),
    lab("wal.sync_b32_us", "us"),
    lab_exact("wal.bytes_per_record", "bytes", Lower),
    lab("snapshot.install_ms_per_mib", "ms"),
    lab("durable.open_ms_per_10k", "ms"),
    // transport
    lab("frame.roundtrip_ns", "ns"),
    lab("nio.accum_ns_per_frame", "ns"),
    lab("nio.accum_dribble_ns_per_frame", "ns"),
    lab("nio.loopback_rtt_us", "us"),
    // daemon::proto / state
    lab("proto.capture_encode_ns", "ns"),
    lab("proto.capture_decode_ns", "ns"),
    lab_exact("proto.capture_bytes", "bytes", Lower),
    lab("proto.locate_resp_decode_ns", "ns"),
    lab("state.record_encode_ns", "ns"),
    lab("state.record_decode_ns", "ns"),
    lab("state.state_bytes_ms", "ms"),
    // daemon::node::Core
    lab("core.apply_capture_ns", "ns"),
    lab("core.apply_flush_us", "us"),
    lab("core.apply_protocol_ns", "ns"),
    lab_exact("core.outbox_msgs_per_flush", "count", Lower),
    // the engine over sockets (lab cluster: 3 nodes, fsync = batch)
    lab("engine.status_rtt_us", "us"),
    PerLayer {
        name: "engine.durable_acks_per_s",
        unit: "1/s",
        better: Higher,
        source: Source::Lab,
        exact: false,
    },
    lab("engine.durable_ack_us", "us"),
    lab("engine.durable_ack_tail_us", "us"),
    lab("engine.local_locate_us", "us"),
    lab("engine.remote_locate_us", "us"),
    lab_exact("engine.rpcs_per_locate", "count", Lower),
    lab_exact("engine.frames_per_capture", "count", Lower),
    lab_exact("engine.wal_bytes_per_locate", "bytes", Lower),
    lab("engine.recovery_ms", "ms"),
    lab("engine.delivery_mean_us", "us"),
    // qcache
    lab("qcache.get_ns", "ns"),
    lab("qcache.insert_ns", "ns"),
    // obs (the harness's own instrument)
    lab("obs.hist_record_ns", "ns"),
    // ---- from the traced workload itself --------------------------------
    work("trace.overhead_share", "share", Lower, false),
    work("residual_share", "share", Lower, false),
    work("busy_share.proto", "share", Lower, false),
    work("busy_share.wal", "share", Lower, false),
    work("busy_share.core", "share", Lower, false),
    work("busy_share.codec", "share", Lower, false),
    work("busy_share.rpc", "share", Lower, false),
    work("busy_share.world", "share", Lower, false),
    work("busy_share.flat", "share", Lower, false),
    work("op.tail_us", "us", Lower, false),
    work("op.tail_samples", "count", Higher, true),
    work("op.tail_percentile", "count", Higher, true),
    work("wal_bytes_per_capture", "bytes", Lower, true),
    work("index_msgs_per_obs", "count", Lower, true),
    work("locate_model_ms", "model_ms", Lower, true),
    work("sim.model_msgs", "count", Lower, true),
    work("sim.digest_head", "count", Lower, true),
    work("flat.scale_events", "count", Lower, true),
    work("flat.rss_bytes_per_record", "bytes", Lower, false),
    work("qcache.hit_ratio", "share", Higher, false),
    work("client.late_share", "share", Lower, false),
    work("workload.rpcs_per_locate", "count", Lower, false),
    work("workload.frames_per_capture", "count", Lower, true),
    work("engine.backpressure_parks", "count", Lower, false),
    work("engine.unsupported", "count", Lower, false),
    work("engine.anomalies", "count", Lower, false),
];

/// The unit of any metric in the tables.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let all = END_TO_END.iter().map(|m| (m.name, m.unit));
    all.chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Names: a letter or digit first, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The whole of `BENCHMARK.json`.
pub fn benchmark_json(workloads: &[(&str, &str)], run_seconds: u64) -> Json {
    let names = workloads
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "{name:?} is not a valid name");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(valid_unit(unit), "{unit:?} is not a valid unit");
    }
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(run_seconds as f64)),
        (
            "workloads".into(),
            Json::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `benchmark_json`, one entry per line.
pub fn benchmark_json_text(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let doc = benchmark_json(workloads, run_seconds);
    let mut out = String::from("{\n");
    let fields = doc.as_obj().expect("object");
    for (i, (key, value)) in fields.iter().enumerate() {
        let end = if i + 1 == fields.len() { "\n" } else { ",\n" };
        match value.as_arr() {
            Some(items) if items.iter().any(|v| v.as_obj().is_some()) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{sep}\n", item.encode()));
                }
                out.push_str(&format!("  ]{end}"));
            }
            _ => out.push_str(&format!("  \"{key}\": {}{end}", value.encode())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_within_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END
                .iter()
                .all(|m| m.bound <= setup.bound && m.issue_bound <= m.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn name_charset_is_enforced() {
        for good in [
            "a",
            "0x",
            "world.msgs.index-report",
            "busy_share.wal",
            &"a".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "µs", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("model_ms") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn time_units_are_never_workload_specific() {
        // A workload-sourced value is 0 where the workload does not
        // reach the layer; a time that reads 0 on every run would be
        // refused, so every per-layer timing comes from the lab - bar
        // the tail latency, which every workload has.
        const TIME_UNITS: [&str; 5] = ["s", "ms", "us", "ns", "min"];
        for m in PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Workload && m.name != "op.tail_us")
        {
            assert!(
                !TIME_UNITS.contains(&m.unit),
                "{} is a workload-sourced time",
                m.name
            );
        }
    }
}
