//! Concurrent wire purchase throughput (experiment E14).
//!
//! Client threads submit pre-built purchase requests against **one shared
//! provider** through `&self` — the `ContentProvider` is `Sync`, so no
//! external mutex and no per-thread provider clones are involved.
//! Parallelism comes from the provider's internal lock sharding: the
//! spent-ID/license store is a `ShardedKv`, the catalog and rights
//! templates are read-locked, and license signing needs no lock at all.
//!
//! Two knobs pick the deployment shape under test: [`StoreBackend`]
//! (volatile vs WAL-backed) and [`DispatchMode`] (the byte-level wire
//! path through [`ProviderService`] — encode request, dispatch, decode
//! response — or real TCP sockets through `p2drm-net`'s
//! `DrmServer`/`TcpTransport`). Every run records into a caller-owned
//! metrics registry, so E14 can price the instrumentation and show one
//! snapshot carrying every subsystem's series.

use crate::metrics::{Histogram, Summary};
use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::service::{
    ProviderService, RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse,
};
use p2drm_core::system::{System, SystemConfig};
use p2drm_net::{ClientConfig, DrmServer, NetConfig, ServerHandle, TcpTransport};
use p2drm_store::{ConcurrentKv, SyncPolicy, WalShardedConfig};
use parking_lot::Mutex;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Which store backend the provider under test runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// Volatile lock-sharded store (`ShardedKv`) — the upper
    /// bound: no durability cost.
    Mem,
    /// WAL-backed sharded store (`WalShardedKv`) under
    /// [`SyncPolicy::Buffered`], in a unique temp directory (removed
    /// after the run).
    Wal,
}

/// How client threads reach the provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Full wire path per purchase: encode a [`RequestEnvelope`],
    /// [`ProviderService::handle`] the bytes, decode the
    /// [`ResponseEnvelope`].
    Wire,
    /// Real sockets: a `DrmServer` bound to a loopback port with one
    /// worker per client thread, each client holding a keep-alive
    /// `TcpTransport` connection. Adds framing plus the kernel TCP
    /// stack on top of [`DispatchMode::Wire`].
    Tcp,
}

/// Throughput run parameters.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Purchases per client.
    pub purchases_per_client: usize,
    /// Lock shards inside the provider's store.
    pub store_shards: usize,
    /// Store backend under test.
    pub backend: StoreBackend,
    /// In-process wire path or real TCP sockets.
    pub mode: DispatchMode,
    /// Private metrics registry for the run: the service (and, in TCP
    /// mode, the server) records into it through
    /// [`ProviderService::with_registry`] instead of the process-wide
    /// one, and [`ThroughputResult::snapshot`] carries the end-of-run
    /// exposition.
    pub registry: Arc<p2drm_obs::Registry>,
    /// Enable per-request tracing on the run's service(s).
    pub tracing: bool,
}

/// Throughput results.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Completed purchases.
    pub completed: usize,
    /// Purchases per second (aggregate).
    pub throughput: f64,
    /// Per-purchase latency summary.
    pub latency: Summary,
    /// Exact median per-purchase latency in nanoseconds, computed from
    /// the raw samples rather than histogram buckets. Robust to
    /// scheduler stalls (which contaminate wall-clock throughput and
    /// the mean but shift the median of thousands of samples by almost
    /// nothing), so it is the statistic of choice for small-overhead
    /// comparisons like E14's ≤2% observability budget.
    pub median_op_ns: u64,
    /// End-of-run unified metrics snapshot, taken from the private
    /// registry while the provider is still alive (its weak
    /// [`p2drm_obs::MetricSource`] registration would go dead once the
    /// run's `Arc`s drop).
    pub snapshot: p2drm_obs::Snapshot,
}

/// Self-cleaning unique temp directory for WAL-backed runs.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("p2drm-sim-throughput-{}-{n}", std::process::id()));
        // Pre-clean: a stale directory from a crashed prior run (possibly
        // with a different shard count) would fail the MANIFEST check.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the throughput experiment on the configured backend. Setup
/// (users, pseudonyms, coins) is excluded from the measured section; only
/// request handling is timed — the license-server capacity question,
/// including the cost of durability when the backend is WAL-backed.
pub fn purchase_throughput<R: Rng>(config: ThroughputConfig, rng: &mut R) -> ThroughputResult {
    let mut sys = System::bootstrap(SystemConfig::fast_test(), rng);
    let provider_config = ProviderConfig {
        store_shards: config.store_shards,
        ..ProviderConfig::fast_test()
    };

    // The shared provider under test, with the requested store sharding
    // and backend. It shares the system's mint, so deposits (and
    // double-spend protection) stay globally consistent.
    match config.backend {
        StoreBackend::Mem => {
            let provider = ContentProvider::new(
                &mut sys.root,
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                provider_config,
                rng,
            );
            drive_provider(config, sys, provider, rng)
        }
        StoreBackend::Wal => {
            let tmp = TempDir::new();
            let (provider, _report) = ContentProvider::open_durable(
                &mut sys.root,
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                &tmp.0,
                WalShardedConfig {
                    shards: config.store_shards.max(1),
                    policy: SyncPolicy::Buffered,
                },
                provider_config,
                rng,
            )
            .expect("open durable provider");
            drive_provider(config, sys, provider, rng)
        }
    }
}

/// Backend-generic measured section.
fn drive_provider<B: ConcurrentKv + Send + Sync + 'static, R: Rng>(
    config: ThroughputConfig,
    sys: System,
    provider: ContentProvider<B>,
    rng: &mut R,
) -> ThroughputResult {
    let provider = Arc::new(provider);
    let template = sys.config().rights_template.clone();
    let cid = provider.publish("hot-item", 100, &vec![0u8; 1024], template, rng);
    let epoch = sys.epoch();

    // Pre-build all requests: one user per client, coins + pseudonyms
    // prepared up front.
    let total = config.clients * config.purchases_per_client;
    let mut requests: Vec<Vec<PurchaseRequest>> = Vec::with_capacity(config.clients);
    for c in 0..config.clients {
        // Every purchase mints a fresh pseudonym, so size the card's
        // budget to the workload instead of the 64-slot default.
        let budget = p2drm_core::entities::CardBudget {
            max_pseudonyms: config.purchases_per_client + 8,
        };
        let mut user = sys
            .register_user_with_budget(&format!("client-{c}"), budget, rng)
            .unwrap();
        sys.fund(&user, 100 * config.purchases_per_client as u64);
        let mut reqs = Vec::with_capacity(config.purchases_per_client);
        for _ in 0..config.purchases_per_client {
            sys.ensure_pseudonym(&mut user, rng).unwrap();
            let cert = user.current_pseudonym().unwrap().clone();
            let account = user.account.clone();
            let coin = user.wallet.withdraw(&sys.mint, &account, 100, rng).unwrap();
            user.wallet.take(100);
            user.note_pseudonym_use();
            reqs.push(PurchaseRequest {
                content_id: cid,
                pseudonym_cert: cert,
                coin,
                attribute_cert: None,
            });
        }
        requests.push(reqs);
    }

    let completed = std::sync::atomic::AtomicUsize::new(0);
    let histograms: Vec<Mutex<Histogram>> = (0..config.clients)
        .map(|_| Mutex::new(Histogram::new()))
        .collect();
    // Raw per-op samples, kept alongside the bucketed histogram so the
    // exact median survives (see `ThroughputResult::median_op_ns`).
    let samples: Vec<Mutex<Vec<u64>>> = (0..config.clients)
        .map(|_| Mutex::new(Vec::with_capacity(config.purchases_per_client)))
        .collect();

    // The byte-level service fronts the shared provider; each purchase
    // pays encode → handle (decode, dispatch, encode) → decode inside the
    // timed section. Fold the batch crypto layer's process-wide counters
    // into the private snapshot too.
    let registry = &config.registry;
    registry.register_source(Arc::downgrade(p2drm_crypto::batch::batch_metric_source()));
    let service = ProviderService::with_registry(provider.clone(), 0x317E_0000, registry.clone());
    service.set_tracing(config.tracing);
    service.set_time(epoch, sys.now());

    // Tcp mode additionally boots a real server on a loopback port (its
    // own service instance over the same shared provider) with one
    // worker per client thread, so keep-alive connections are never
    // starved.
    let server: Option<ServerHandle> = match config.mode {
        DispatchMode::Tcp => {
            let tcp_service =
                ProviderService::with_registry(provider.clone(), 0x317E_0001, registry.clone());
            tcp_service.set_tracing(config.tracing);
            tcp_service.set_time(epoch, sys.now());
            Some(
                DrmServer::bind(
                    "127.0.0.1:0",
                    tcp_service,
                    NetConfig {
                        workers: config.clients,
                        max_connections: config.clients + 4,
                        registry: Some(registry.clone()),
                        ..NetConfig::default()
                    },
                )
                .expect("bind loopback server"),
            )
        }
        DispatchMode::Wire => None,
    };

    // Dial every keep-alive client connection *before* the clock
    // starts: the steady-state cost under test is request/reply, not
    // connection establishment.
    let mut transports: Vec<Option<TcpTransport>> = (0..config.clients)
        .map(|_| {
            server.as_ref().map(|s| {
                TcpTransport::connect_with(s.local_addr(), ClientConfig::default())
                    .expect("connect to loopback server")
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for ((c, reqs), mut transport) in requests.iter().enumerate().zip(transports.drain(..)) {
            let service = &service;
            let completed = &completed;
            let histograms = &histograms;
            let samples = &samples;
            scope.spawn(move || {
                for (i, req) in reqs.iter().enumerate() {
                    // The request clone stands in for the client-side
                    // message the caller would already hold; it stays
                    // outside the timed section so the run measures
                    // encode → dispatch → decode, nothing else.
                    let body = WireRequest::Purchase(req.clone());
                    let t0 = Instant::now();
                    // Correlation id 0 is reserved for server pre-decode
                    // errors, so the per-request index is offset by one.
                    let corr = ((c as u64) << 32) | (i as u64 + 1);
                    let request = RequestEnvelope {
                        correlation_id: corr,
                        body,
                    }
                    .to_bytes();
                    let reply = match &mut transport {
                        None => service.handle(&request),
                        Some(t) => {
                            use p2drm_core::service::Transport;
                            t.roundtrip(corr, &request).expect("loopback tcp roundtrip")
                        }
                    };
                    let envelope = ResponseEnvelope::from_bytes(&reply)
                        .expect("service replies are well-formed");
                    let dt = t0.elapsed();
                    if matches!(envelope.body, WireResponse::Purchase(_)) {
                        completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        histograms[c].lock().record_duration(dt);
                        samples[c]
                            .lock()
                            .push(dt.as_nanos().min(u64::MAX as u128) as u64);
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    // Snapshot before shutdown: the TCP server owns its service, whose
    // tracer and `ServerMetrics` are weak sources in the registry —
    // they die with it.
    let snapshot = registry.snapshot();
    if let Some(server) = server {
        server.shutdown();
    }

    let mut merged = Histogram::new();
    for h in &histograms {
        merged.merge(&h.lock());
    }
    let mut all_samples: Vec<u64> = samples.iter().flat_map(|s| s.lock().clone()).collect();
    all_samples.sort_unstable();
    let median_op_ns = all_samples.get(all_samples.len() / 2).copied().unwrap_or(0);
    let completed = completed.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(completed, total, "all purchases must succeed");
    assert_eq!(
        provider.license_count(),
        total,
        "license store accounts for every issuance"
    );

    ThroughputResult {
        completed,
        throughput: completed as f64 / wall.as_secs_f64(),
        latency: merged.summary(),
        median_op_ns,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    fn run(
        clients: usize,
        store_shards: usize,
        backend: StoreBackend,
        mode: DispatchMode,
        seed: u64,
    ) -> ThroughputResult {
        purchase_throughput(
            ThroughputConfig {
                clients,
                purchases_per_client: 3,
                store_shards,
                backend,
                mode,
                registry: Arc::new(p2drm_obs::Registry::new()),
                tracing: false,
            },
            &mut test_rng(seed),
        )
    }

    #[test]
    fn wire_mode_completes_all_purchases() {
        for store_shards in [1, 8] {
            let r = run(2, store_shards, StoreBackend::Mem, DispatchMode::Wire, 272);
            assert_eq!(r.completed, 6);
            assert!(r.throughput > 0.0);
            assert_eq!(r.latency.count, 6);
        }
    }

    #[test]
    fn tcp_mode_completes_all_purchases() {
        let r = run(2, 8, StoreBackend::Mem, DispatchMode::Tcp, 274);
        assert_eq!(r.completed, 6);
        assert!(r
            .snapshot
            .entries
            .iter()
            .any(|(name, _)| name.starts_with("net_")));
    }

    #[test]
    fn wire_mode_works_over_wal_backend() {
        let r = run(2, 4, StoreBackend::Wal, DispatchMode::Wire, 273);
        assert_eq!(r.completed, 6);
        assert!(r
            .snapshot
            .entries
            .iter()
            .any(|(name, _)| name.starts_with("store_")));
    }
}
