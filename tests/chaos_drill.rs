//! Tier-1 chaos drills: a small seeded fault-schedule set through the
//! full recovery stack — wire client with retry and resend, durable
//! provider, `FaultTransport` and `FaultKv` — including one provider
//! kill/restart over a torn WAL shard. The wide sweep (≥20 schedules
//! across 1–10% fault rates) lives in the release-mode `e15`
//! experiment; this keeps a debug-buildable core of it in every test
//! run.

use p2drm::sim::chaos::{run_drill, ChaosConfig};

#[test]
fn seeded_drills_hold_invariants() {
    for (seed, rate) in [(0xD1u64, 2), (0xD2, 10), (0xD5, 30)] {
        let outcome = run_drill(&ChaosConfig {
            seed,
            ops: 6,
            fault_rate_pct: rate,
            kill_restart: false,
        });
        assert!(
            outcome.invariants_ok(),
            "seed {seed:x} at {rate}%: {:?}",
            outcome.violations
        );
    }
}

#[test]
fn kill_restart_drill_recovers_over_torn_wal() {
    let outcome = run_drill(&ChaosConfig {
        seed: 0xD3,
        ops: 6,
        fault_rate_pct: 10,
        kill_restart: true,
    });
    assert!(outcome.invariants_ok(), "{:?}", outcome.violations);
    assert!(
        outcome.restart_truncated_tail,
        "resume must detect the torn shard tail"
    );
}

#[test]
fn same_seed_replays_a_byte_identical_schedule() {
    let config = ChaosConfig {
        seed: 0xD4,
        ops: 5,
        fault_rate_pct: 10,
        kill_restart: false,
    };
    let a = run_drill(&config);
    let b = run_drill(&config);
    assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    assert_eq!(a.ops_succeeded, b.ops_succeeded);
    assert_eq!(a.faults_fired, b.faults_fired);
}
