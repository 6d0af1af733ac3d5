//! Schedule-exploring invariant auditor (the tentpole test layer).
//!
//! Random operation schedules — captures, movements, churn, crashes,
//! clock advances — run against a lossy network, and the auditor checks
//! the global invariants of §III–§IV after quiescence (see
//! `integration_tests::audit`). Three claims are established:
//!
//! 1. With the retry layer **off**, a modest drop rate breaks the
//!    invariants, and proptiny shrinks the breaking schedule to a
//!    minimal reproducer (printed as a runnable `AUDIT_SCHEDULE` line).
//! 2. With the retry layer **on**, the *same* drop rate passes the full
//!    invariant audit across many random schedules.
//! 3. The recovery traffic is visible under its own message classes
//!    (`Retrans`, `Ack`) so experiments can price reliability.
//!
//! Replay a reproducer with:
//!
//! ```text
//! AUDIT_SCHEDULE='<words>' cargo test -p integration-tests \
//!     --test schedule_audit replay_schedule_from_env -- --nocapture
//! ```

use integration_tests::audit::{
    causal_slice, decode, describe, encode, format_schedule, parse_schedule, run_schedule,
    run_schedule_traced, shrink_word, AuditConfig, Op,
};
use proptiny::prelude::*;
use proptiny::schedule::{schedule, ScheduleStrategy};

/// Drop rate both headline properties run at (ISSUE: "at least 5%").
const DROP: f64 = 0.08;

/// The schedule vocabulary: mostly captures and movements, a steady
/// trickle of time advances and churn, occasional crashes. Selectors
/// are resolved modulo the live population at execution time, so every
/// generated (or shrunk) word list is runnable.
fn schedule_words(max_len: usize) -> ScheduleStrategy<u64> {
    schedule(1..max_len)
        .with_op(10, |rng| encode(Op::Capture { site: detrand::Rng::gen_range(rng, 0..32u16) }))
        .with_op(8, |rng| {
            encode(Op::MoveObj {
                site: detrand::Rng::gen_range(rng, 0..32u16),
                obj: detrand::Rng::gen_range(rng, 0..64u16),
            })
        })
        .with_op(4, |rng| encode(Op::Advance { ms: detrand::Rng::gen_range(rng, 20..700u16) }))
        .with_op(2, |_| encode(Op::Quiesce))
        .with_op(2, |_| encode(Op::Join))
        .with_op(1, |rng| encode(Op::Leave { sel: detrand::Rng::gen_range(rng, 0..16u16) }))
        .with_op(1, |rng| encode(Op::Crash { sel: detrand::Rng::gen_range(rng, 0..16u16) }))
        .with_op_shrink(|w| shrink_word(*w))
}

/// The same vocabulary with mid-schedule locates mixed in, for the
/// locate-cache property: locates warm the per-site cache, subsequent
/// movements and churn must invalidate it.
fn schedule_words_with_locates(max_len: usize) -> ScheduleStrategy<u64> {
    schedule(1..max_len)
        .with_op(10, |rng| encode(Op::Capture { site: detrand::Rng::gen_range(rng, 0..32u16) }))
        .with_op(8, |rng| {
            encode(Op::MoveObj {
                site: detrand::Rng::gen_range(rng, 0..32u16),
                obj: detrand::Rng::gen_range(rng, 0..64u16),
            })
        })
        .with_op(6, |rng| encode(Op::Locate { obj: detrand::Rng::gen_range(rng, 0..64u16) }))
        .with_op(4, |rng| encode(Op::Advance { ms: detrand::Rng::gen_range(rng, 20..700u16) }))
        .with_op(2, |_| encode(Op::Quiesce))
        .with_op(2, |_| encode(Op::Join))
        .with_op(1, |rng| encode(Op::Leave { sel: detrand::Rng::gen_range(rng, 0..16u16) }))
        .with_op(1, |rng| encode(Op::Crash { sel: detrand::Rng::gen_range(rng, 0..16u16) }))
        .with_op_shrink(|w| shrink_word(*w))
}

/// The same vocabulary with permanent kills mixed in, for the
/// replicated-network property.
fn schedule_words_with_kills(max_len: usize) -> ScheduleStrategy<u64> {
    schedule(1..max_len)
        .with_op(10, |rng| encode(Op::Capture { site: detrand::Rng::gen_range(rng, 0..32u16) }))
        .with_op(8, |rng| {
            encode(Op::MoveObj {
                site: detrand::Rng::gen_range(rng, 0..32u16),
                obj: detrand::Rng::gen_range(rng, 0..64u16),
            })
        })
        .with_op(4, |rng| encode(Op::Advance { ms: detrand::Rng::gen_range(rng, 20..700u16) }))
        .with_op(2, |_| encode(Op::Quiesce))
        .with_op(2, |_| encode(Op::Join))
        .with_op(3, |rng| encode(Op::Kill { sel: detrand::Rng::gen_range(rng, 0..16u16) }))
        .with_op_shrink(|w| shrink_word(*w))
}

/// Recover the word list from proptiny's `Debug`-rendered minimal
/// counterexample, e.g. `([72057594037927936, 3],)`.
fn words_from_minimal(minimal: &str) -> Vec<u64> {
    let digits: String =
        minimal.chars().map(|c| if c.is_ascii_digit() { c } else { ' ' }).collect();
    parse_schedule(&digits).expect("minimal schedule is a digit list")
}

/// Claim 1: the auditor finds an invariant violation under loss without
/// retries, and the shrunk schedule still reproduces it.
#[test]
fn auditor_finds_and_shrinks_a_violation_without_retries() {
    let cfg = AuditConfig::lossy_no_retries(DROP);
    let failure = proptiny::run_collect(
        "auditor_finds_and_shrinks_a_violation_without_retries",
        &proptiny::Config { cases: 32, max_shrink_steps: 2048, ..proptiny::Config::default() },
        &(schedule_words(40),),
        |(words,): (Vec<u64>,)| {
            let report = run_schedule(&cfg, &words);
            if report.violations.is_empty() {
                proptiny::CaseResult::Pass
            } else {
                proptiny::CaseResult::Fail(report.violations.join("; "))
            }
        },
    )
    .expect_err("an unreliable network at 8% drop must violate the tracking invariants");

    let words = words_from_minimal(&failure.minimal);
    assert!(!words.is_empty(), "shrinking must keep at least one op: {failure:?}");
    // Re-run the shrunk schedule with the causal trace on: tracing is
    // observation-only, so the violation must reproduce identically —
    // and now arrives with the message chain that caused it.
    let (report, rec) = run_schedule_traced(&cfg, &words);
    assert!(
        !report.violations.is_empty(),
        "the shrunk schedule must still reproduce a violation: {}",
        describe(&words)
    );
    println!(
        "shrunk to {} op(s) after {} shrink evals (seed {:#x}):\n  {}\n  violations: {:?}",
        words.len(),
        failure.shrink_steps,
        failure.seed,
        describe(&words),
        report.violations
    );
    println!(
        "replay: AUDIT_SCHEDULE='{}' AUDIT_RETRIES=off AUDIT_DROP={DROP} cargo test -q \
         -p integration-tests --test schedule_audit replay_schedule_from_env -- --nocapture",
        format_schedule(&words)
    );
    let slice = causal_slice(&rec.borrow(), &report);
    assert!(!slice.is_empty(), "a violating traced run must yield a causal slice");
    println!("{slice}");
}

/// Claim 2: with the retry layer on, the same drop rate passes the full
/// audit across many random schedules (`AUDIT_CASES` overrides the
/// budget; `scripts/verify.sh` uses a reduced fast-mode budget).
#[test]
fn schedules_with_retries_preserve_all_invariants() {
    let cases = std::env::var("AUDIT_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(50);
    let cfg = AuditConfig::lossy_with_retries(DROP);
    proptiny::run(
        "schedules_with_retries_preserve_all_invariants",
        &proptiny::Config::with_cases(cases),
        &(schedule_words(40),),
        |(words,): (Vec<u64>,)| {
            let report = run_schedule(&cfg, &words);
            prop_assert!(
                report.violations.is_empty(),
                "invariants violated despite retries: {:?}\nschedule: {}\n({})",
                report.violations,
                format_schedule(&words),
                describe(&words)
            );
            proptiny::CaseResult::Pass
        },
    );
}

/// The locate-cache invariant as a property over random schedules
/// (DESIGN.md §15): with a per-site locate-answer cache enabled and
/// mid-schedule locates warming it, the *same* lossy-with-retries
/// network passes the full invariant audit — cached answers are
/// invalidated by movement epochs and churn, never served stale. The
/// cached run's protocol traffic is also byte-for-byte the uncached
/// run's (queries are read-only), asserted via the fault-plane counters
/// (`AUDIT_CASES` overrides the budget; `scripts/verify.sh` uses a
/// reduced fast-mode budget).
#[test]
fn cached_schedules_stay_oracle_exact() {
    let cases = std::env::var("AUDIT_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24);
    let cfg = AuditConfig::lossy_with_retries(DROP);
    proptiny::run(
        "cached_schedules_stay_oracle_exact",
        &proptiny::Config::with_cases(cases),
        &(2usize..=32, schedule_words_with_locates(36)),
        |(capacity, words): (usize, Vec<u64>)| {
            let cached = run_schedule(&cfg.with_locate_cache(capacity), &words);
            prop_assert!(
                cached.violations.is_empty(),
                "locate cache (capacity {capacity}) violated the tracking invariants: \
                 {:?}\nschedule: {}\n({})",
                cached.violations,
                format_schedule(&words),
                describe(&words)
            );
            let plain = run_schedule(&cfg, &words);
            prop_assert!(
                plain.fault_stats == cached.fault_stats
                    && plain.retrans_messages == cached.retrans_messages
                    && plain.ack_messages == cached.ack_messages,
                "caching must be invisible to the protocol plane: {:?} vs {:?}\nschedule: {}",
                plain.fault_stats,
                cached.fault_stats,
                format_schedule(&words)
            );
            proptiny::CaseResult::Pass
        },
    );
}

/// The kill-forever invariant as a property over random schedules: on a
/// fault-free plane with K-successor replication, any schedule whose
/// permanent losses stay within the K−1 budget (the auditor degrades
/// the rest to crashes) must keep every locate and trace oracle-exact —
/// kills earn **no** taints (`AUDIT_CASES` overrides the budget;
/// `scripts/verify.sh` uses a reduced fast-mode budget).
#[test]
fn kill_forever_schedules_stay_oracle_exact() {
    let cases = std::env::var("AUDIT_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32);
    proptiny::run(
        "kill_forever_schedules_stay_oracle_exact",
        &proptiny::Config::with_cases(cases),
        &(2usize..=4, schedule_words_with_kills(30)),
        |(k, words): (usize, Vec<u64>)| {
            let cfg = AuditConfig::replicated(k);
            let report = run_schedule(&cfg, &words);
            prop_assert!(
                report.violations.is_empty(),
                "kill-forever (K={k}) violated the tracking invariants: {:?}\nschedule: {}\n({})",
                report.violations,
                format_schedule(&words),
                describe(&words)
            );
            proptiny::CaseResult::Pass
        },
    );
}

/// Claim 3: recovery traffic is observable — on a lossy run with
/// retries enabled, drops happen, retransmissions are charged to
/// `MsgClass::Retrans`, acks to `MsgClass::Ack`, and the invariants
/// still hold.
#[test]
fn retry_traffic_is_charged_to_its_own_message_classes() {
    let cfg = AuditConfig::lossy_with_retries(0.15);
    let words: Vec<u64> = [
        Op::Capture { site: 0 },
        Op::Capture { site: 1 },
        Op::Capture { site: 2 },
        Op::Capture { site: 3 },
        Op::Capture { site: 4 },
        Op::Capture { site: 5 },
        Op::Quiesce,
        Op::MoveObj { site: 1, obj: 0 },
        Op::MoveObj { site: 2, obj: 1 },
        Op::MoveObj { site: 3, obj: 2 },
        Op::MoveObj { site: 4, obj: 3 },
        Op::Quiesce,
        Op::Join,
        Op::MoveObj { site: 5, obj: 4 },
        Op::MoveObj { site: 0, obj: 5 },
        Op::Quiesce,
    ]
    .into_iter()
    .map(encode)
    .collect();
    let report = run_schedule(&cfg, &words);
    assert_eq!(report.violations, Vec::<String>::new());
    assert!(report.fault_stats.dropped > 0, "the fault plane must have dropped something");
    assert!(
        report.retrans_messages > 0,
        "dropped sequenced messages must surface as Retrans traffic: {report:?}"
    );
    assert!(report.ack_messages > 0, "delivered sequenced messages must be acked");
}

/// A graceful leave hands the leaver's index entries on but takes its
/// repository with it. A locate anchored on the origin's own records
/// whose forward walk reaches the leaver must finish at the gateway, not
/// answer `None` (a schedule shrunk from a retries-on run: `Capture{0},
/// Join, MoveObj{site 6, obj 0}, Leave{0}`).
#[test]
fn locate_after_a_graceful_leave_answers_from_the_gateway() {
    let words = parse_schedule("0,288230376151711744,72057594038321152,360287970189639680")
        .expect("decimal words");
    let report = run_schedule(&AuditConfig::lossy_with_retries(DROP), &words);
    assert_eq!(report.violations, Vec::<String>::new(), "{}", describe(&words));
}

/// Replay harness for shrunk reproducers. Skips (trivially passes) when
/// `AUDIT_SCHEDULE` is unset. `AUDIT_DROP` (default 0.08),
/// `AUDIT_RETRIES` (`on`/`off`, default `off`) and `AUDIT_SEED` tune
/// the configuration to match the failure being replayed.
#[test]
fn replay_schedule_from_env() {
    let Ok(sched) = std::env::var("AUDIT_SCHEDULE") else {
        return;
    };
    let words = parse_schedule(&sched).expect("AUDIT_SCHEDULE must be decimal words");
    let drop = std::env::var("AUDIT_DROP").ok().and_then(|v| v.parse().ok()).unwrap_or(DROP);
    let retries = std::env::var("AUDIT_RETRIES").map(|v| v == "on").unwrap_or(false);
    let mut cfg = if retries {
        AuditConfig::lossy_with_retries(drop)
    } else {
        AuditConfig::lossy_no_retries(drop)
    };
    if let Some(seed) = std::env::var("AUDIT_SEED").ok().and_then(|v| v.parse().ok()) {
        cfg.seed = seed;
    }
    println!("replaying {} op(s): {}", words.len(), describe(&words));
    let (report, rec) = run_schedule_traced(&cfg, &words);
    println!("{report:#?}");
    if !report.violations.is_empty() {
        println!("{}", causal_slice(&rec.borrow(), &report));
    }
    assert!(
        report.violations.is_empty(),
        "schedule violates the tracking invariants: {:?}",
        report.violations
    );
}

/// The word codec the reproducer pipeline rests on: decode ∘ encode is
/// the identity over the whole op vocabulary (belt to the unit tests'
/// braces — this is the integration boundary the env replay uses).
#[test]
fn reproducer_words_survive_print_and_parse() {
    let words: Vec<u64> = [
        Op::Capture { site: 31 },
        Op::MoveObj { site: 7, obj: 63 },
        Op::Advance { ms: 699 },
        Op::Quiesce,
        Op::Join,
        Op::Leave { sel: 15 },
        Op::Crash { sel: 9 },
    ]
    .into_iter()
    .map(encode)
    .collect();
    let reparsed = parse_schedule(&format_schedule(&words)).unwrap();
    assert_eq!(reparsed, words);
    for (&w, &r) in words.iter().zip(reparsed.iter()) {
        assert_eq!(decode(w), decode(r));
    }
}
