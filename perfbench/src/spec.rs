//! What the benchmark runs: the two workloads, their pinned open-loop
//! rates, and the map from each per-layer metric to the end-to-end metric
//! it should move.

use p2drm_core::service::OpCode;

/// Provider and mint RSA modulus size (`SystemConfig::realistic`).
pub const KEY_BITS: usize = 1024;
/// WAL shards behind the provider store.
pub const WAL_SHARDS: usize = 8;
/// Price of every catalog item; also a mint denomination, so each
/// purchase pays with exactly one coin.
pub const PRICE: u64 = 100;
/// Pseudonym reuse bound for buyers.
pub const REUSE_K: u32 = 4;
/// Revoked license ids pre-filled into the CRL for `playback`.
pub const PLAYBACK_CRL: usize = 10_000;
/// A run is invalid when its sends left later than this at p99 (ms).
/// On a shared 2-vCPU VM host preemption alone leaves 0.1-9 ms; the
/// limit sits at about twice the worst of that, so an invalid run means
/// the generator fell behind, not that the host was busy.
pub const LATE_LIMIT_MS: f64 = 20.0;
/// Requests each closed-loop connection keeps in flight while measuring
/// capacity.
pub const CAPACITY_DEPTH: usize = 4;

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Anonymous purchases, each quoted first.
    Checkout,
    /// Content downloads and CRL syncs against a large CRL.
    Playback,
}

/// Static description of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// CLI name.
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Pinned open-loop arrival rate, ops/s of the whole mix (about half
    /// of the measured closed-loop capacity on a 2-core machine).
    pub rate_ops_s: f64,
    /// The op the workload is about.
    pub lead: OpCode,
    /// The op issued beside it.
    pub side: OpCode,
    /// Lead ops per side op.
    pub lead_per_side: u32,
    /// Fresh requests for the closed-loop capacity phase (about a second
    /// of work at the measured capacity).
    pub capacity_ops: usize,
    /// Catalog items published in setup.
    pub items: usize,
    /// Payload bytes per item.
    pub item_bytes: usize,
}

impl Workload {
    /// Every workload, as `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Checkout, Workload::Playback];

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The workload's static description.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Checkout => Spec {
                name: "checkout",
                why: "the paper's core sale: quote then anonymous purchase with a fresh coin; \
                      fsync, mint deposit, license signing and pseudonym checks block it, CRLs do not",
                rate_ops_s: 700.0,
                lead: OpCode::Purchase,
                side: OpCode::Catalog,
                lead_per_side: 1,
                capacity_ops: 4000,
                items: 1000,
                item_bytes: 1024,
            },
            Workload::Playback => Spec {
                name: "playback",
                why: "read-only downloads of 256 KiB items and syncs of a 10,000-id CRL; bytes and \
                      CRL signing dominate, the mint, store writes and pseudonym checks are bypassed",
                rate_ops_s: 600.0,
                lead: OpCode::Download,
                side: OpCode::CrlSync,
                lead_per_side: 4,
                capacity_ops: 3000,
                items: 64,
                item_bytes: 256 * 1024,
            },
        }
    }
}

/// Gated end-to-end metrics: `(name, unit)`, in output order.
/// `lead_handle_ms` is the wall time `ProviderService::handle` takes for
/// one request of the workload's lead op (purchase, download): it holds
/// the op's blocking time — fsync, lock and valve waits — beside its CPU.
/// `lead_cpu_us` is the worker CPU the same call costs. Client-observed
/// latencies, the side op's figures and capacity are printed beside them
/// but not gated: on a shared VM the loopback, queueing and generator
/// share of a request moves with host preemption far more than the
/// provider's own time does.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lead_handle_ms", "ms"),
    ("lead_cpu_us", "us"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: name, unit, the end-to-end metric it should
/// move, and on which workloads.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) where it should move them.
    pub on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric of a traced run, with its layer map.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    lm("gen.late_p99_ms", "ms", "validity of every latency", "all"),
    lm("net.inbound_p50_ms", "ms", "lead_p50_ms, capacity_ops_s", "all"),
    lm("net.inbound_p99_ms", "ms", "lead_p99_ms, capacity_ops_s", "all"),
    lm("net.outbound_p50_ms", "ms", "lead_p50_ms, side_p50_ms", "playback"),
    lm("net.bytes_per_op", "B", "cpu_ms_per_op, lead_p50_ms", "playback"),
    lm("net.busy_rejections", "count", "error_ratio", "all"),
    lm("net.decode_errors", "count", "error_ratio", "all"),
    lm("service.purchase_p50_ms", "ms", "lead_handle_ms, lead_p50_ms", "checkout"),
    lm("service.catalog_p50_ms", "ms", "side_p50_ms", "checkout"),
    lm("service.download_p50_ms", "ms", "lead_handle_ms, lead_p50_ms", "playback"),
    lm("service.crl_sync_p50_ms", "ms", "cpu_ms_per_op, side_p50_ms", "playback"),
    lm("codec.purchase_request_encode_us", "us", "cpu_ms_per_op", "checkout"),
    lm("codec.purchase_response_decode_us", "us", "cpu_ms_per_op", "checkout"),
    lm("codec.catalog_request_encode_us", "us", "cpu_ms_per_op", "checkout"),
    lm("codec.catalog_response_decode_us", "us", "cpu_ms_per_op", "checkout"),
    lm("codec.download_request_encode_us", "us", "cpu_ms_per_op", "playback"),
    lm("codec.download_response_decode_us", "us", "cpu_ms_per_op, lead_p50_ms", "playback"),
    lm("codec.crl_sync_request_encode_us", "us", "cpu_ms_per_op", "playback"),
    lm("codec.crl_sync_response_decode_us", "us", "cpu_ms_per_op, side_p50_ms", "playback"),
    lm("provider.purchase_self_us", "us", "lead_cpu_us, lead_handle_ms, capacity_ops_s", "checkout"),
    lm("provider.catalog_self_us", "us", "cpu_ms_per_op, side_p50_ms", "checkout"),
    lm("provider.download_self_us", "us", "lead_cpu_us, lead_handle_ms", "playback"),
    lm("provider.crl_sync_self_us", "us", "cpu_ms_per_op, side_p50_ms", "playback"),
    lm("pki.vcache_hit_ratio", "ratio", "lead_cpu_us, lead_handle_ms", "checkout"),
    lm("pki.vcache_lookups", "count", "lead_cpu_us", "checkout"),
    lm("pki.verify_miss_us", "us", "lead_cpu_us, lead_handle_ms", "checkout"),
    lm("pki.crl_entries", "count", "cpu_ms_per_op, side_p50_ms, side_p99_ms", "playback"),
    lm("pki.crl_sign_ms", "ms", "cpu_ms_per_op, side_p50_ms, side_p99_ms", "playback"),
    lm("payment.check_coin_us", "us", "lead_cpu_us, lead_handle_ms, capacity_ops_s", "checkout"),
    lm("payment.deposit_us", "us", "lead_cpu_us, lead_handle_ms, capacity_ops_s", "checkout"),
    lm("payment.deposits_per_op", "count", "lead_cpu_us, capacity_ops_s", "checkout"),
    lm("crypto.sign_us", "us", "lead_cpu_us, cpu_ms_per_op", "checkout; playback syncs"),
    lm("crypto.seal_us", "us", "lead_cpu_us", "checkout"),
    lm("crypto.verify_us", "us", "lead_cpu_us (inside the pseudonym and coin checks)", "checkout"),
    lm("store.put_p50_us", "us", "lead_handle_ms, capacity_ops_s", "checkout"),
    lm("store.put_p99_us", "us", "lead_p99_ms", "checkout"),
    lm("store.writes_per_op", "count", "lead_handle_ms, lead_cpu_us, capacity_ops_s", "checkout"),
    lm("store.fsyncs_per_op", "count", "lead_handle_ms, capacity_ops_s", "checkout"),
    lm("store.wal_bytes_per_op", "B", "lead_cpu_us, lead_handle_ms", "checkout"),
    lm("store.busy_share", "ratio", "lead_handle_ms, capacity_ops_s", "checkout"),
    lm("trace.overhead_lead", "ratio", "lead_p50_ms (tracing cost)", "all"),
    lm("trace.overhead_side", "ratio", "side_p50_ms (tracing cost)", "all"),
];
