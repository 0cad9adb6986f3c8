//! E15 — seeded chaos drills: a wire client with operation-level
//! recovery purchasing against a **durable** provider through a
//! [`FaultTransport`], over a store that fails writes through a
//! [`FaultKv`], optionally with a provider kill/restart (torn shard tail
//! included) in the middle of the run.
//!
//! Every drill is driven by one seed: the fault schedule is a pure
//! function of `(seed, site, call#)` (see [`p2drm_faults::FaultPlan`]),
//! the client's jitter stream is seeded, and the workload is fixed — so
//! a failing drill replays exactly. After the workload the faults stop,
//! the client resends every purchase still unsettled, and the runner
//! checks the global invariants no matter which faults fired:
//!
//! 1. **exactly once** — coins the mint credited == licenses the
//!    provider issued == licenses the client holds;
//! 2. **coin conservation** — every withdrawn coin is exactly one of
//!    {spendable in the wallet, deposited at the mint}, and no purchase
//!    is left unsettled;
//! 3. **no duplicate licenses** — every license the client holds has a
//!    distinct id.

use crate::json::{Json, ToJson};
use crate::metrics::{Histogram, Summary};
use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::retry::{CircuitBreaker, RetryBudget, RetryPolicy};
use p2drm_core::service::{Loopback, ProviderService, Recovery, RecoveryMetrics, WireClient};
use p2drm_core::system::{System, SystemConfig};
use p2drm_crypto::rng::test_rng;
use p2drm_faults::{
    crash, kv_sites, transport_sites, FaultKv, FaultPlan, FaultTransport, Schedule,
};
use p2drm_obs::Registry;
use p2drm_store::{SyncPolicy, WalShardedConfig, WalShardedKv};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of one chaos drill.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault schedule, workload RNG, and client jitter.
    pub seed: u64,
    /// Purchase attempts across the whole drill.
    pub ops: usize,
    /// Per-site fault probability, in percent (the paper-facing "1–10%
    /// fault rate" knob; each transport and store site flips its own
    /// coin).
    pub fault_rate_pct: u32,
    /// Kill the provider mid-run (unclean drop + a torn shard tail) and
    /// resume it from its WAL directory before the second half.
    pub kill_restart: bool,
}

impl ChaosConfig {
    /// Default drill: 48 ops at 5% with a mid-run kill/restart.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ops: 48,
            fault_rate_pct: 5,
            kill_restart: true,
        }
    }
}

/// Everything one drill observed, invariants included.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The drill's seed.
    pub seed: u64,
    /// Per-site fault probability (percent).
    pub fault_rate_pct: u32,
    /// Whether the drill killed and resumed the provider mid-run.
    pub kill_restart: bool,
    /// Purchase attempts made.
    pub ops_attempted: u64,
    /// Purchases that returned a license to the client during the run.
    pub ops_succeeded: u64,
    /// `ops_succeeded / ops_attempted`.
    pub recovery_rate: f64,
    /// Fault decisions that fired, across all sites.
    pub faults_fired: u64,
    /// Retries the client actually sent (`client_retries`).
    pub retries: u64,
    /// Operations abandoned with attempts/budget exhausted.
    pub giveups: u64,
    /// Licenses obtained after the run by resending the purchases it
    /// left unsettled.
    pub settled: u64,
    /// Latency of successful purchases.
    pub latency: Summary,
    /// FNV-1a fingerprint of the fault plan's decision trace; equal
    /// seeds must produce equal fingerprints (byte-identical schedules).
    pub trace_fingerprint: u64,
    /// Whether the restart replay reported a truncated (torn) tail.
    pub restart_truncated_tail: bool,
    /// Invariant violations (empty == the drill passed).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// True when every global invariant held.
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl ToJson for ChaosOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("fault_rate_pct", self.fault_rate_pct.to_json()),
            ("kill_restart", self.kill_restart.to_json()),
            ("ops_attempted", self.ops_attempted.to_json()),
            ("ops_succeeded", self.ops_succeeded.to_json()),
            ("recovery_rate", self.recovery_rate.to_json()),
            ("faults_fired", self.faults_fired.to_json()),
            ("retries", self.retries.to_json()),
            ("giveups", self.giveups.to_json()),
            ("settled", self.settled.to_json()),
            ("latency", self.latency.to_json()),
            (
                "trace_fingerprint",
                format!("{:016x}", self.trace_fingerprint).to_json(),
            ),
            (
                "restart_truncated_tail",
                self.restart_truncated_tail.to_json(),
            ),
            ("invariants_ok", self.invariants_ok().to_json()),
            ("violations", self.violations.to_json()),
        ])
    }
}

/// Self-cleaning unique temp directory for the drill's WAL shards.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(seed: u64) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("p2drm-chaos-{}-{seed}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recovery tuned for drills: fast backoffs (the drill sleeps real
/// time), no wall-clock deadline and an effectively-disabled breaker so
/// the decision trace stays a pure function of the seed, and budget
/// ample enough that give-ups measure the schedule, not the wallet.
fn drill_recovery(seed: u64, ops: usize, registry: &Registry) -> Recovery {
    Recovery {
        policy: RetryPolicy {
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            max_attempts: 4,
            op_deadline: None,
            jitter_seed: seed,
        },
        budget: RetryBudget::new(4 * ops as u32 + 64, 1_000),
        breaker: CircuitBreaker::new(u32::MAX, Duration::from_millis(1)),
        metrics: Some(RecoveryMetrics::register(registry)),
    }
}

/// The sites a drill arms: every transport site, and the store's write
/// failures.
const SITES: [&str; 9] = [
    transport_sites::RESET_MID_WRITE,
    transport_sites::DROP_REQUEST,
    transport_sites::BUSY_STORM,
    transport_sites::DELAY,
    transport_sites::DROP_REPLY,
    transport_sites::TORN_FRAME,
    transport_sites::DUPLICATE_REPLY,
    kv_sites::FAIL_PUT,
    kv_sites::FAIL_INSERT,
];

/// Sets every drill site to an independent per-call coin at `rate_pct`
/// percent (`0` disarms them).
fn arm(plan: &FaultPlan, rate_pct: u32) {
    let p = f64::from(rate_pct) / 100.0;
    for site in SITES {
        plan.set(site, Schedule::Probability(p));
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs one seeded chaos drill end to end.
pub fn run_drill(config: &ChaosConfig) -> ChaosOutcome {
    let mut rng = test_rng(config.seed);
    let mut sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let tmp = TempDir::new(config.seed);
    let durable = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::FlushEach,
    };
    let plan = Arc::new(FaultPlan::new(config.seed));
    let open = |plan: &Arc<FaultPlan>| {
        let (wal, report) = WalShardedKv::open(&tmp.0, durable).expect("WAL directory opens");
        (FaultKv::new(wal, plan.clone()), report)
    };

    // The drill's own durable provider (the one that gets killed),
    // sharing the system's mint/root/RA so wire purchases settle against
    // the same books the invariants audit.
    let provider = ContentProvider::with_backend(
        &mut sys.root,
        sys.mint.clone(),
        sys.ra.blind_public().clone(),
        open(&plan).0,
        ProviderConfig::fast_test(),
        &mut rng,
    );
    let cids: Vec<_> = (0..3)
        .map(|i| {
            provider.publish(
                format!("chaos-item-{i}"),
                100,
                &vec![0xC4u8; 256],
                p2drm_rel::Rights::builder()
                    .play(p2drm_rel::Limit::Unlimited)
                    .transfer(p2drm_rel::Limit::Count(3))
                    .build(),
                &mut rng,
            )
        })
        .collect();
    let vault = provider.export_keys();
    let cert = provider.certificate().clone();
    let mut provider = Arc::new(provider);

    let mut user = sys
        .register_user("chaos-user", &mut rng)
        .expect("fresh user");
    sys.fund(&user, 100 * config.ops as u64 + 1_000);
    let mint = sys.mint.clone();
    let withdrawn_before = mint.withdrawal_transcript().len();
    let spent_before = mint.spent_count();

    arm(&plan, config.fault_rate_pct);
    let registry = Registry::new();
    let mut latency = Histogram::new();
    let mut succeeded = 0u64;
    let mut restart_truncated_tail = false;

    let phases: &[usize] = if config.kill_restart {
        &[config.ops / 2, config.ops - config.ops / 2]
    } else {
        &[config.ops]
    };
    for (phase, &phase_ops) in phases.iter().enumerate() {
        {
            let service = ProviderService::new(provider.clone(), config.seed ^ phase as u64)
                .with_ra(sys.ra.clone());
            service.set_time(sys.epoch(), sys.now());
            let transport = FaultTransport::new(Loopback::new(&service), plan.clone());
            let mut client = WireClient::new(transport).with_recovery(drill_recovery(
                config.seed,
                config.ops,
                &registry,
            ));
            client.set_epoch(sys.epoch());

            for op in 0..phase_ops {
                sys.ensure_pseudonym(&mut user, &mut rng)
                    .expect("RA is not behind the faulty wire");
                let cid = cids[op % cids.len()];
                let t0 = Instant::now();
                if client.purchase(&mut user, &mint, cid, &mut rng).is_ok() {
                    latency.record_duration(t0.elapsed());
                    succeeded += 1;
                }
            }
        }
        // Kill: unclean drop of the provider (no checkpoint), crash
        // damage on one shard's log, then resume over the directory.
        if config.kill_restart && phase == 0 {
            let inner = Arc::try_unwrap(provider)
                .ok()
                .expect("client and service dropped; ours is the last handle");
            drop(inner);
            crash::tear_shard_tail(&tmp.0, 1).expect("shard log exists");
            let keys: p2drm_crypto::rsa::RsaKeyPair =
                p2drm_codec::from_bytes(&vault).expect("key vault decodes");
            let (backend, report) = open(&plan);
            let resumed = ContentProvider::resume_backend(
                keys,
                cert.clone(),
                sys.root.public_key().clone(),
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                backend,
                ProviderConfig::fast_test(),
            )
            .expect("provider resumes over damaged directory");
            restart_truncated_tail = report.truncated_tail;
            provider = Arc::new(resumed);
        }
    }

    // The outage ends; the client resends whatever is still unsettled.
    arm(&plan, 0);
    let settled = {
        let service = ProviderService::new(provider.clone(), config.seed).with_ra(sys.ra.clone());
        service.set_time(sys.epoch(), sys.now());
        let mut client = WireClient::new(Loopback::new(&service));
        client.set_epoch(sys.epoch());
        client
            .settle(&mut user)
            .iter()
            .filter(|r| r.is_ok())
            .count() as u64
    };

    // Global invariants.
    let mut violations = Vec::new();
    let deposits = mint.spent_count() - spent_before;
    let (issued, held) = (provider.license_count(), user.licenses().len());
    if deposits != issued || issued != held {
        violations.push(format!(
            "not exactly once: {deposits} deposits, {issued} licenses issued, {held} held"
        ));
    }
    if !user.unsettled().is_empty() {
        violations.push(format!(
            "{} purchases still unsettled after resending",
            user.unsettled().len()
        ));
    }
    let withdrawn = mint.withdrawal_transcript().len() - withdrawn_before;
    if withdrawn != user.wallet.len() + deposits {
        violations.push(format!(
            "coin conservation: {withdrawn} withdrawn != {} spendable + {deposits} deposited",
            user.wallet.len()
        ));
    }
    let distinct: BTreeSet<_> = user.licenses().iter().map(|l| l.license.id()).collect();
    if distinct.len() != held {
        violations.push(format!(
            "duplicate license ids: {held} held, {} distinct",
            distinct.len()
        ));
    }

    let snap = registry.snapshot();
    ChaosOutcome {
        seed: config.seed,
        fault_rate_pct: config.fault_rate_pct,
        kill_restart: config.kill_restart,
        ops_attempted: config.ops as u64,
        ops_succeeded: succeeded,
        recovery_rate: succeeded as f64 / config.ops.max(1) as f64,
        faults_fired: plan.total_fired(),
        retries: snap.counter("client_retries").unwrap_or(0),
        giveups: snap.counter("client_retry_giveups").unwrap_or(0),
        settled,
        latency: latency.summary(),
        trace_fingerprint: fnv64(&plan.trace_bytes()),
        restart_truncated_tail,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_drill_succeeds_everywhere() {
        let outcome = run_drill(&ChaosConfig {
            seed: 0xC1EA4,
            ops: 6,
            fault_rate_pct: 0,
            kill_restart: false,
        });
        assert!(outcome.invariants_ok(), "{:?}", outcome.violations);
        assert_eq!(outcome.ops_succeeded, 6, "no faults, no failures");
        assert_eq!(outcome.faults_fired, 0);
    }

    #[test]
    fn faulty_drill_holds_invariants_and_replays() {
        let config = ChaosConfig {
            seed: 0xFA17,
            ops: 16,
            fault_rate_pct: 10,
            kill_restart: false,
        };
        let a = run_drill(&config);
        assert!(a.invariants_ok(), "{:?}", a.violations);
        let b = run_drill(&config);
        assert_eq!(
            a.trace_fingerprint, b.trace_fingerprint,
            "same seed, byte-identical fault schedule"
        );
        assert_eq!(a.ops_succeeded, b.ops_succeeded);
    }
}
