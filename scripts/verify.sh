#!/usr/bin/env bash
# Tier-1 verify: hermetic build + tests, then a policy check that no
# crate has reintroduced a registry dependency. The workspace must
# build from a clean checkout with an empty cargo registry cache —
# every dependency is an in-tree path dependency (see README "Building"
# and DESIGN.md "In-tree primitives").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --offline

echo "== benchmark workspace builds against crates/ and its tests pass =="
# benchmark/ is a separate workspace with path-deps on crates/*, so the
# build above never compiles it: an API change under crates/ that
# breaks it would otherwise surface only in the benchmark pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== schedule auditor (fast budget) =="
# Random op schedules under 5% drop with retries on must preserve every
# invariant, and — with K-successor replication on — random schedules
# that mix in permanent kills must stay oracle-exact (the kill-forever
# op, DESIGN.md §13). A reduced case budget keeps this inside tier-1
# time; the full-budget run is the tests' default (`AUDIT_CASES`
# unset).
AUDIT_CASES=15 cargo test -q --offline -p integration-tests --test schedule_audit

echo "== replication placement + failover (simulator, fast budget) =="
# Kill-forever in the simulator: oracle-exact answers after ≤ K−1
# permanent losses, the replicas(1) no-op equivalence, and the
# K-successor placement property over random membership churn.
AUDIT_CASES=8 cargo test -q --offline -p integration-tests --test replication

echo "== tracing-off / cache-off byte-identity: figure CSVs =="
# The observability layer must be zero-cost when no sink is installed,
# and the locate cache must be zero-cost when not configured:
# regenerating the figure and fault-sweep CSVs with the instrumented
# binaries must reproduce the committed files byte for byte. (These
# binaries run trace-free and cache-off; any behavioral drift — an
# extra RNG draw, a reordered dispatch, a query answered differently —
# shows up here as a diff.) zipf_sweep doubles as the cache smoke: it
# runs every scenario cache-off AND cache-on at quick scale, asserts
# oracle-exact answers in both modes plus the headline reductions, and
# its committed artifacts are deterministic, so they are byte-gated
# like the figures. all_experiments writes all six fig*.csv and exits
# non-zero unless the shape criteria of DESIGN.md §5 hold.
for bin in all_experiments fault_sweep zipf_sweep ablations query_breakdown; do
    ./target/release/"$bin" > /dev/null
done
git diff --exit-code -- \
    results/fig6a.csv results/fig6b.csv results/fig7a.csv results/fig7b.csv \
    results/fig8a.csv results/fig8b.csv results/fault_sweep.csv results/fault_stats.csv \
    results/zipf_sweep_off.csv results/zipf_sweep_on.csv results/BENCH_qcache.json \
    results/ablations.csv results/query_breakdown.csv \
    || { echo "figure CSVs drifted from the committed baselines" >&2; exit 1; }
echo "OK: fig6/7/8 + fault_sweep + zipf_sweep + ablations + query_breakdown byte-identical to committed baselines."

echo "== WAN federation sweep byte-identity (DESIGN.md §17) =="
# Flat ring vs proximity placement over the three-region wan3 topology
# at identical seeds. The binary hard-asserts the headline (proximity
# reduces cross-region bytes AND cross-region locate p95, oracle-exact
# in both modes); the byte gate pins the full per-region-pair tables.
# Purely modeled time — deterministic on any host.
./target/release/wan_sweep > /dev/null
git diff --exit-code -- \
    results/wan_sweep_flat.csv results/wan_sweep_proximity.csv \
    results/BENCH_wan.json \
    || { echo "wan_sweep artifacts drifted from the committed baselines" >&2; exit 1; }
echo "OK: wan_sweep flat/proximity artifacts byte-identical to committed baselines."

echo "== trace exporter: deterministic exports =="
# Two same-seed traced runs must write byte-identical artifacts.
./target/release/trace_run > /dev/null
cp results/trace_demo.json /tmp/verify_trace_demo.json
cp results/latency_histograms.csv /tmp/verify_latency_histograms.csv
./target/release/trace_run > /dev/null
cmp results/trace_demo.json /tmp/verify_trace_demo.json
cmp results/latency_histograms.csv /tmp/verify_latency_histograms.csv
rm -f /tmp/verify_trace_demo.json /tmp/verify_latency_histograms.csv
echo "OK: trace exports byte-identical across invocations."

echo "== sharded determinism: T=1 vs T=4 byte-identical =="
# The parallel executor's contract (DESIGN.md §16): thread count is a
# throughput knob, never a semantics knob. The canonical flat-engine
# geometry must produce byte-identical run summaries — events, windows,
# records, oracle counters, per-class message accounting — at 1 and 4
# worker threads.
./target/release/complexity_check --shard-csv /tmp/verify_shard_t1.csv --threads 1 > /dev/null
./target/release/complexity_check --shard-csv /tmp/verify_shard_t4.csv --threads 4 > /dev/null
cmp /tmp/verify_shard_t1.csv /tmp/verify_shard_t4.csv \
    || { echo "sharded executor results depend on the thread count" >&2; exit 1; }
rm -f /tmp/verify_shard_t1.csv /tmp/verify_shard_t4.csv
echo "OK: canonical sharded run byte-identical at T=1 and T=4."

echo "== flat-engine scale smoke (bounded) =="
# Sub-second ascending sweep with the locate oracle and the Θ(No)
# slope assert baked into the binary; the 10^6-node / 10^7-object
# sweep is `complexity_check --full`, not tier-1.
./target/release/complexity_check --quick > /dev/null
echo "OK: complexity_check --quick clean (oracle-exact, Θ(No) slope)."

echo "== full-size sim_protocol digests (seeds 42 and 1337) =="
# The simulator at the benchmark's full size must reproduce the digests
# of every modeled statistic pinned in benchmark/expected/sim_protocol.digest
# (per-class messages, bytes and hops; every answer with its cost).
# run.sh exits non-zero on a mismatch, so a speed-up of ids, Chord or
# the planner that moves one owner, hop or answer fails here. One round
# per seed, no sockets; the --quick digests ride the socket-gated
# benchmark smoke below.
for seed in 42 1337; do
    timeout 300 bash benchmark/run.sh --workload sim_protocol --seed "$seed" \
        --seconds 1 --trace 0 > /dev/null \
        || { echo "sim_protocol seed $seed: full-size digest differs (or the run failed)" >&2; exit 1; }
done
echo "OK: full-size sim_protocol digests match at seeds 42 and 1337."

echo "== loopback cluster smoke (real sockets) =="
# Five daemon nodes on ephemeral loopback ports run a real movement and
# answer queries over the wire, inside a hard timeout so a wedged
# cluster fails the gate instead of hanging it. Sandboxes that forbid
# binding sockets skip this stage loudly (same probe the socket tests
# use).
if ./target/release/peertrackd --probe-bind; then
    timeout 120 cargo test -q --offline -p daemon --test loopback \
        || { echo "loopback cluster smoke failed (or timed out)" >&2; exit 1; }
    timeout 180 cargo test -q --offline -p integration-tests --test cluster_parity \
        || { echo "cluster/simulator parity failed (or timed out)" >&2; exit 1; }
    echo "OK: loopback cluster runs, queries answer, accounting matches the simulator."

    echo "== kill-and-recover smoke (durable data dirs) =="
    # A node crashed mid-schedule (no final snapshot) must restart from
    # its WAL+snapshot byte-identical and keep answering correctly; the
    # same test file also holds the snapshot-anywhere ≡ pure-replay and
    # corruption-prefix properties. Hard timeout: a wedged recovery
    # fails the gate instead of hanging it.
    timeout 180 cargo test -q --offline -p integration-tests --test crash_recovery \
        || { echo "crash recovery smoke failed (or timed out)" >&2; exit 1; }
    echo "OK: crashed node recovered byte-identical and answers match the oracle."

    echo "== kill-forever failover (--replicas, real sockets) =="
    # An 8-node cluster with K = 3 replication loses two nodes
    # *permanently* (no restart); every survivor's locate/trace must
    # stay oracle-exact with zero protocol anomalies (DESIGN.md §13).
    timeout 180 cargo test -q --offline -p integration-tests --test replication_cluster \
        || { echo "kill-forever failover failed (or timed out)" >&2; exit 1; }
    # And the flag itself: a replicated daemon must come up and answer
    # ctl, and a zero replica count must be rejected loudly.
    ./target/release/peertrackd --replicas 0 --site 0 --seed 1 --listen 127.0.0.1:0 \
        2>/dev/null && { echo "peertrackd accepted --replicas 0" >&2; exit 1; }
    repl_out=$(mktemp)
    ./target/release/peertrackd --site 0 --seed 1 --listen 127.0.0.1:0 --replicas 3 \
        > "$repl_out" &
    repl_pid=$!
    repl_addr=""
    for _ in $(seq 50); do
        repl_addr=$(sed -n 's/.*listening on //p' "$repl_out")
        [[ -n "$repl_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$repl_addr" ]] || {
        echo "peertrackd --replicas 3 never came up" >&2
        kill "$repl_pid" 2>/dev/null || true
        exit 1
    }
    ./target/release/peertrackd ctl "$repl_addr" status > /dev/null
    ./target/release/peertrackd ctl "$repl_addr" shutdown > /dev/null
    wait "$repl_pid" || true
    rm -f "$repl_out"
    echo "OK: two permanent losses survived; --replicas daemon answers ctl."

    echo "== region-cut partition smoke (wan3 over real sockets) =="
    # A six-node cluster over geo::Topology::wan3 is partitioned into
    # three isolated regions (Frame::RegionCut), keeps answering about
    # fully-propagated history, holds cross-region messages at the
    # senders, then heals and must be oracle-exact on everything —
    # including a handoff made during the partition — with zero
    # protocol anomalies on every node (DESIGN.md §17).
    timeout 180 cargo test -q --offline -p integration-tests --test wan_cluster \
        || { echo "region-cut partition smoke failed (or timed out)" >&2; exit 1; }
    echo "OK: three-way region partition held, healed, reconverged oracle-exact."

    echo "== event-loop pipelining & backpressure (real sockets) =="
    # Pipelined bursts must answer byte-identical to request-at-a-time
    # (and match the oracle), slow-loris/partial frames must not block
    # or corrupt, a never-reading client must be parked (bounded
    # outbox), and pipelined acks must survive Frame::Crash.
    timeout 180 cargo test -q --offline -p integration-tests --test daemon_pipeline \
        || { echo "pipelining/backpressure suite failed (or timed out)" >&2; exit 1; }
    echo "OK: pipelining parity, slow-loris isolation, backpressure, group commit."

    echo "== benchmark smoke (all five workloads, 1/20 size) =="
    # Every workload end to end from outside, including sim_protocol's
    # pinned digest; the daemon workloads need sockets.
    timeout 300 bash benchmark/run.sh --quick > /dev/null \
        || { echo "benchmark/run.sh --quick failed (or timed out)" >&2; exit 1; }
    echo "OK: benchmark/run.sh --quick ran all five workloads."

    echo "== write-path collapse detector (daemon_ingest floor) =="
    # An order-of-magnitude collapse detector for the write path
    # (capture -> ack), nothing finer: the floor is ~30x under this
    # host's quick-size figure. Group-commit *throughput* is gated by
    # the benchmark pipeline's 25 % bound on daemon_ingest, ack-after-
    # fsync *ordering* by daemon_pipeline.rs::
    # pipelined_acked_captures_survive_crash_under_batch_fsync.
    ingest_ops=$(timeout 120 bash benchmark/run.sh --quick --workload daemon_ingest --trace 0 \
        | tail -n 1 | sed -n 's/.*"ops_per_s": {"value": \([0-9.]*\).*/\1/p') \
        || { echo "benchmark/run.sh --quick --workload daemon_ingest failed" >&2; exit 1; }
    awk -v ops="$ingest_ops" 'BEGIN { exit !(ops >= 1500) }' \
        || { echo "daemon_ingest ops_per_s '$ingest_ops' is under the 1500 floor" >&2; exit 1; }
    echo "OK: daemon_ingest sustains ${ingest_ops%.*} ops/s (floor 1500)."
else
    echo "WARNING: sandbox forbids binding loopback sockets; cluster and" >&2
    echo "         kill-and-recover smokes and the benchmark smoke SKIPPED" >&2
    echo "         (socket-free recovery properties and the benchmark's" >&2
    echo "         own tests still ran in the stages above)." >&2
fi

echo "== dependency policy: path-only =="
# Any dependency line carrying a version requirement or registry/git
# source is a policy violation. In-tree deps look like
# `foo = { workspace = true }` / `foo = { path = "..." }`; the
# workspace table itself must be path-only too.
# Inside any *dependencies* section, the only acceptable shapes are
# `foo = { workspace = true }` and `foo = { path = "...", ... }` with
# no version/git/registry source. Section-aware so keys like
# `description` or `resolver` elsewhere never false-positive.
violations=$(
    find . -name Cargo.toml -not -path './target/*' -print0 | xargs -0 awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            ok = ($0 ~ /workspace[[:space:]]*=[[:space:]]*true/ || $0 ~ /path[[:space:]]*=/)
            bad = ($0 ~ /(version|git|registry)[[:space:]]*=/)
            if (!ok || bad) print FILENAME ":" FNR ": " $0
        }' || true
)
if [[ -n "$violations" ]]; then
    echo "registry/git dependencies are not allowed (hermetic build policy):" >&2
    echo "$violations" >&2
    exit 1
fi
echo "OK: all Cargo.toml dependencies are path-only."

# Membership check: every directory under crates/ must be a workspace
# member, so a newly added crate can never dodge the build, the tests,
# or the dependency-policy scan above.
for dir in crates/*/; do
    c=$(basename "$dir")
    grep -q "crates/$c" Cargo.toml \
        || { echo "crates/$c missing from the workspace manifest" >&2; exit 1; }
done
echo "OK: every crates/* directory is a workspace member."

# One write plane: the daemon hosts `peertrack::site`, it does not carry
# a copy of it. A comment announcing code "ported" from the simulator,
# or that "mirrors" it, is how the last copy described itself. (Whole
# words: the file legitimately says "unsupported".)
if grep -n -i -w 'ported\|mirrors' crates/daemon/src/node.rs; then
    echo "crates/daemon/src/node.rs describes a second copy of simulator code" >&2
    exit 1
fi
echo "OK: daemon/src/node.rs carries no ported copy of the write plane."

# One pump, no re-entrancy: a query parks on its read log, so nothing in
# the engine waits inside a frame handler. The nested pump, its deferral
# rule, the polled blocking read and the stream checkout they needed
# must not grow back, and `run` stays the pump's only caller.
if grep -rnE 'Mode::Nested|Deferred|busy_conn|pumped_read_frame|set_read_timeout' crates/daemon/src \
    || grep -rnE 'fn (checkout|checkin)' crates/transport/src; then
    echo "the blocking read path is back in the daemon" >&2
    exit 1
fi
pump_calls=$(grep -rn -F 'self.pump(' crates/daemon/src | wc -l)
[[ "$pump_calls" -eq 1 ]] \
    || { echo "Engine::pump has $pump_calls call sites, expected 1 (run)" >&2; exit 1; }
echo "OK: one pump, one call site, no blocking read path."

# One shard mover: key handoff, split/merge and delegation move index
# entries through `peertrack::site` on both hosts. The simulator's own
# copies, the daemon's stored hosted-prefix set and the fsync mode that
# behaved exactly like `batch` must not grow back.
if grep -nE 'fn (split_level|merge_level|apply_migration|merge_entry)\b' crates/peertrack/src/world.rs \
    || grep -nE '\bhosted:' crates/daemon/src/node.rs \
    || grep -rn 'FsyncMode::Always' crates tests; then
    echo "a second shard mover, a stored hosted set or FsyncMode::Always is back" >&2
    exit 1
fi
echo "OK: one shard mover for both hosts, hosted prefixes derived, two fsync modes."

# The gateway is written once: the §III arrival and the whole Fig. 5
# `index` (refresh walk, `update_index`, delegation trigger) run in
# `peertrack::site` for both hosts. No host may define its own copy
# again; doc comments may still name the paper's functions. Silent
# when clean.
gateway_copies='fn (handle_group_index|handle_arrival|refresh_from_ascent|refresh_from_descent'
gateway_copies+='|check_refresh_unneeded|maybe_delegate)\b'
if grep -rnE "$gateway_copies" crates --include='*.rs'; then
    echo "a host defines its own copy of the gateway's index path again" >&2
    exit 1
fi

# One merge rule at the gateway: a visit older than the one indexed is
# spliced into the IOP chain (`site::splice`), never dropped and
# counted, so the auditor holds every untainted object to exactness in
# every schedule. The drop counter's increments, `merge_entry` and the
# auditor's run-wide ordering switch must not grow back. Silent when
# clean.
if grep -rnE 'out_of_order_arrivals *\+=|fn merge_entry\b' crates --include='*.rs' \
    || grep -rn 'ordering_clean' tests; then
    echo "a gateway drop rule or the auditor's ordering switch is back" >&2
    exit 1
fi

# A read never touches the disk: no engine path logs a query, and the
# snapshot keeps only protocol state — `state_bytes` writes no metrics,
# no anomaly counters and no hosted-prefix list. Silent when clean.
state_body=$(awk '/pub fn state_bytes/{on=1} on{print} on&&/^    }$/{on=0}' crates/daemon/src/state.rs)
if [[ -z "$state_body" ]] \
    || grep -rn 'log_apply(WalRecord::Query' crates \
    || grep -nE 'metrics|anomalies|hosted|put_prefix' <<<"$state_body"; then
    echo "a read is logged again, or the snapshot carries counters or hosted prefixes" >&2
    exit 1
fi

# One delivery rule: per-peer sequence numbers and a cumulative ack,
# released after commit, replace the per-message dedup set, the
# harness's sent/received balancing and the region-cut park list; none
# of them may grow back. Silent when clean.
if grep -nE '\bseen *:|HashSet<\(u32, u64\)>' crates/daemon/src/node.rs \
    || grep -rnE 'sent -= 1|dead_sent|dead_received|parked_out' crates/daemon \
    || grep -nw 'seen' <<<"$state_body"; then
    echo "a dedup set, counter balancing or the park list is back in the daemon" >&2
    exit 1
fi

# One link per peer, no sleeping dial: every frame the engine sends a
# peer rides that peer's nonblocking link, dialed once with no retry.
# The blocking stream cache, its staleness peek and the test-build dial
# delay must not grow back, and the engine sleeps only in `run`'s exit
# drain.
if grep -rnE 'ConnCache|dial_delay|is_stale' crates --include='*.rs'; then
    echo "the blocking outbound stream cache is back under crates/" >&2
    exit 1
fi
node_sleeps=$(grep -c 'thread::sleep' crates/daemon/src/node.rs)
run_sleeps=$(awk '/^    fn run\(/{on=1} on{print} on&&/^    }$/{on=0}' crates/daemon/src/node.rs \
    | grep -c 'thread::sleep')
[[ "$node_sleeps" -eq 1 && "$run_sleeps" -eq 1 ]] \
    || { echo "node.rs sleeps $node_sleeps times, $run_sleeps in Engine::run; expected 1 and 1" >&2; exit 1; }
echo "OK: one link per peer, no connection cache, the engine sleeps only in run."

# An idle engine waits on its sockets (`transport::nio` watchers), not
# on a clock: the 200 us idle sleep and the spin while a query is parked
# must not grow back. Refused: the identifier `IDLE_SLEEP` anywhere
# under crates/, and a sleep or yield in `Engine::run`'s loop that
# depends on `queries`. Silent when clean.
run_loop=$(awk '/^    fn run\(/{on=1} on&&/while self\.stop\.is_none\(\)/{loop=1} loop{print} loop&&/^        }$/{exit}' \
    crates/daemon/src/node.rs)
if [[ -z "$run_loop" ]] || grep -rnw 'IDLE_SLEEP' crates \
    || { grep -q 'queries' <<<"$run_loop" && grep -qE 'thread::sleep|yield_now' <<<"$run_loop"; }; then
    echo "the idle sleep or the spin on parked queries is back in Engine::run" >&2
    exit 1
fi

# Nothing under crates/ lives for a demo alone: every crate is a
# dependency of another crate, the integration tests or the benchmark,
# or ships binaries of its own. examples/Cargo.toml does not count.
for dir in crates/*/; do
    c=$(basename "$dir")
    [[ -d "${dir}src/bin" ]] && continue
    ls crates/*/Cargo.toml tests/Cargo.toml benchmark/Cargo.toml \
        | grep -v "^crates/$c/" | xargs grep -qE "^$c[[:space:]]*=" \
        || { echo "crates/$c is consumed by no crate, test, gate or workload" >&2; exit 1; }
done
echo "OK: every crates/* directory has a consumer beyond examples/."

# One Chord lookup: both daemon planes walk the local ring replica. The
# networked walk (wire kinds 11 and 36, retired) must not grow back.
if grep -rnE 'LookupStep|LookupDriver|StepResp|answer_step' crates --include='*.rs'; then
    echo "the networked Chord walk is back under crates/" >&2
    exit 1
fi
echo "OK: no networked Chord walk under crates/."

# One read per site: a query asks a site for what it holds about the
# object (`Frame::Holdings`: its visit history and index entry), and the
# planner derives every view it walks by from the history. The per-view
# request and reply frames and the per-view read methods must not grow
# back. Silent when clean.
if grep -rnwE 'GatewayProbe|IopKnows|RecFirst|ReplRecAt|LinkResp|BoolResp' crates tests --include='*.rs' \
    || grep -rnwE 'Frame::(RecAt|RecLatest)' crates tests --include='*.rs' \
    || grep -rnE 'fn (replica_record_at|read_record)\b' crates tests --include='*.rs'; then
    echo "a per-view read frame or read method is back" >&2
    exit 1
fi

# One checked byte reader: `peertrack::bytebuf::Reader` is the only code
# that reads a field off untrusted bytes. A second bounds-check helper
# or primitive getter is how the last two copies began, and a decoder
# that copies its whole input (or an encoder its whole output) is what
# the borrowed reader removed.
if grep -rnE 'fn need\(|fn get_u(8|32|64)\(' crates --include='*.rs' \
    | grep -v '^crates/peertrack/src/bytebuf.rs:'; then
    echo "a second byte reader is defined outside peertrack::bytebuf" >&2
    exit 1
fi
if grep -nE '(raw|body)\.to_vec\(\)|as_slice\(\)\.to_vec\(\)' \
    crates/daemon/src/proto.rs crates/daemon/src/state.rs crates/peertrack/src/codec.rs; then
    echo "a codec entry point copies its whole buffer" >&2
    exit 1
fi
echo "OK: one checked byte reader, no whole-buffer copies in the codecs."

# One wire schema: every message, frame and WAL record is declared once
# through `peertrack::wire_enum!`, and its encoder, decoder and model size
# follow from the declaration (`peertrack::schema`). A hand-written tag
# table or per-type field codec is how the copies began. Refused under
# crates/: a `TAG_`/`K_`/`R_` `u8` constant outside test modules, and a
# `put_`/`get_` function for one field type. Silent when clean.
tag_tables=$(find crates -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} /const (TAG|K|R)_[A-Z_]+: u8/{print f ":" FNR ": " $0}' "$f"
done)
if [[ -n "$tag_tables" ]] && echo "$tag_tables" \
    || grep -rnE 'fn (put|get)_(object|time|site|opt_link|record|prefix|blob|str|member|capture|wire)\b' \
        crates --include='*.rs'; then
    echo "a hand-written tag table or field codec is back under crates/" >&2
    exit 1
fi

# Every committed artifact is regenerated by a gate above, or it is not
# committed: each tracked path under results/ must be named in this
# script. The one exemption, hand-maintained: results/TRAJECTORY.md.
for f in $(git ls-files results/); do
    grep -q -F "$f" scripts/verify.sh \
        || { echo "$f is committed but no gate in scripts/verify.sh names it" >&2; exit 1; }
done
echo "OK: every committed results/ file is named by a gate."

# Tracked, not gated: ROADMAP aim 2 wants this number to fall.
echo "crates/ Rust lines: $(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)"
