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
    # fully-propagated history, parks cross-region frames at the
    # senders, then heals and must be oracle-exact on everything —
    # including a handoff made during the partition — with zero
    # protocol anomalies on every node (DESIGN.md §17).
    timeout 180 cargo test -q --offline -p integration-tests --test wan_cluster \
        || { echo "region-cut partition smoke failed (or timed out)" >&2; exit 1; }
    echo "OK: three-way region partition parked, healed, reconverged oracle-exact."

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
