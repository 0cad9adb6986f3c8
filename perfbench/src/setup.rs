//! Set-up: boots the real system over the WAL store and pre-builds every
//! client-side input, so the timed phases only move frames.
//!
//! All client-side cryptography happens here — pseudonym issuance and
//! coin withdrawal — and so does encoding every request envelope. The
//! work is split over `threads` builder threads, each with its own seeded
//! RNG and its own user, so the inputs depend only on the seed.

use crate::kv::BenchKv;
use crate::spec::{Workload, KEY_BITS, PLAYBACK_CRL, PRICE, REUSE_K, WAL_SHARDS};
use crate::trace::Recorder;
use p2drm_core::content::ContentMeta;
use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::entities::smartcard::CardBudget;
use p2drm_core::entities::user::{PseudonymPolicy, UserAgent};
use p2drm_core::protocol::messages::{CatalogRequest, CrlSyncRequest, DownloadRequest};
use p2drm_core::service::{OpCode, PurchaseSession, RequestEnvelope, WireRequest};
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::{ContentId, LicenseId};
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use p2drm_payment::Mint;
use p2drm_pki::cert::Certificate;
use p2drm_pki::cert::KeyId;
use p2drm_store::{SyncPolicy, WalShardedConfig, WalShardedKv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// The provider's store: the WAL store behind the benchmark's wrapper.
pub type Store = BenchKv<WalShardedKv>;
/// The booted system.
pub type Sys = System<Store>;

/// Seeded RNG for stream `stream` of run seed `seed`.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// What a reply must turn out to be, and what the post-run checks need.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A license for `content`, bound to `pseudonym` of builder `owner`.
    Purchase {
        /// Item bought.
        content: ContentId,
        /// Buyer pseudonym.
        pseudonym: KeyId,
        /// Builder thread whose user bought it.
        owner: usize,
    },
    /// Catalog metadata for `content`.
    Quote {
        /// Item quoted.
        content: ContentId,
    },
    /// The published ciphertext of item `item`.
    Download {
        /// Index into the published items.
        item: usize,
    },
    /// Both signed CRLs.
    CrlSync,
}

/// One pre-built request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Wire op.
    pub op: OpCode,
    /// Correlation id stamped in the envelope.
    pub corr: u64,
    /// Encoded envelope (no length prefix).
    pub bytes: Vec<u8>,
    /// What the reply must be.
    pub expect: Expect,
}

/// One published catalog item.
pub struct Item {
    /// Public metadata.
    pub meta: ContentMeta,
    /// Plaintext payload.
    pub payload: Vec<u8>,
    /// Nonce the provider serves it under.
    pub nonce: [u8; 12],
    /// Ciphertext the provider serves.
    pub ciphertext: Vec<u8>,
}

/// A builder thread's user and RNG.
pub struct Agents {
    /// The buyer (its wallet is funded on `checkout` only).
    pub buyer: UserAgent,
    rng: StdRng,
}

/// The booted system plus everything set-up produced.
pub struct Env {
    /// The system (provider on the WAL store).
    pub sys: Sys,
    /// Published items.
    pub items: Arc<Vec<Item>>,
    /// License-CRL ids revoked during set-up.
    pub crl_prefill: BTreeSet<KeyId>,
    /// Users by builder thread.
    pub agents: Vec<Agents>,
    /// Open-loop requests, in schedule order.
    pub open: Vec<Request>,
    /// Fresh requests for the closed-loop capacity phase.
    pub capacity: Vec<Request>,
    /// Wall time of each set-up step, s, in order.
    pub steps_s: Vec<(&'static str, f64)>,
}

/// The WAL configuration the provider is served from.
pub fn wal_config() -> WalShardedConfig {
    WalShardedConfig {
        shards: WAL_SHARDS,
        policy: SyncPolicy::SyncEach,
    }
}

/// Opens a fresh WAL directory with `policy` and bootstraps the realistic
/// system over it.
fn boot(dir: &Path, policy: SyncPolicy, seed: u64) -> Result<Sys, String> {
    let (wal, report) = WalShardedKv::open(
        dir,
        WalShardedConfig {
            policy,
            ..wal_config()
        },
    )
    .map_err(|e| format!("cannot open WAL dir {}: {e}", dir.display()))?;
    if report.replayed_ops != 0 {
        return Err(format!("WAL dir {} is not fresh", dir.display()));
    }
    let config = SystemConfig::realistic();
    assert_eq!(config.key_bits, KEY_BITS, "realistic config key size");
    let mut rng = rng_for(seed, 0);
    Ok(System::bootstrap_with_backend(
        config,
        BenchKv::new(wal, None),
        &mut rng,
    ))
}

/// What it takes to resume the provider from its WAL directory: its
/// keys and certificate, trust anchors, mint and configuration.
pub struct Identity {
    keys: RsaKeyPair,
    cert: Certificate,
    root_key: RsaPublicKey,
    ra_key: RsaPublicKey,
    mint: Mint,
    config: ProviderConfig,
}

impl Identity {
    /// Copies the provider's identity out of the system.
    pub fn of(sys: &Sys) -> Result<Identity, String> {
        let provider = &sys.provider;
        Ok(Identity {
            keys: p2drm_codec::from_bytes(&provider.export_keys())
                .map_err(|e| format!("key export: {e}"))?,
            cert: provider.certificate().clone(),
            root_key: sys.root.public_key().clone(),
            ra_key: sys.ra.blind_public().clone(),
            mint: sys.mint.clone(),
            config: provider.config().clone(),
        })
    }

    /// Reopens `dir` under `SyncEach` and resumes the provider over it,
    /// restoring catalog and CRLs from the log.
    pub fn resume(
        self,
        dir: &Path,
        recorder: Option<Arc<Recorder>>,
    ) -> Result<ContentProvider<Store>, String> {
        let (wal, _) = WalShardedKv::open(dir, wal_config())
            .map_err(|e| format!("reopening WAL dir {}: {e}", dir.display()))?;
        ContentProvider::resume_backend(
            self.keys,
            self.cert,
            self.root_key,
            self.mint,
            self.ra_key,
            BenchKv::new(wal, recorder),
            self.config,
        )
        .map_err(|e| format!("resuming the provider: {e}"))
    }
}

/// Zipf(s) sampler over ranks `0..n` (inverse CDF by binary search).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity of rank `r` proportional to `1 / (r + 1)^s`.
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn payload(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let mut rng = rng_for(seed, 1_000 + index as u64);
    let mut out = vec![0u8; len];
    rand::RngCore::fill_bytes(&mut rng, &mut out);
    out
}

fn publish(sys: &Sys, workload: Workload, seed: u64) -> Result<Vec<Item>, String> {
    let spec = workload.spec();
    let mut rng = rng_for(seed, 2);
    (0..spec.items)
        .map(|i| {
            let body = payload(seed, i, spec.item_bytes);
            let id = sys.publish_content(&format!("item-{i}"), PRICE, &body, &mut rng);
            let meta = sys
                .provider
                .content_meta(&id)
                .ok_or("published item missing from the catalog")?;
            let (nonce, ciphertext) = sys
                .provider
                .download(&id)
                .map_err(|e| format!("published item not downloadable: {e}"))?;
            Ok(Item {
                meta,
                payload: body,
                nonce,
                ciphertext,
            })
        })
        .collect()
}

fn register(
    sys: &Sys,
    label: &str,
    pseudonyms: usize,
    rng: &mut StdRng,
) -> Result<UserAgent, String> {
    let mut user = sys
        .register_user_with_budget(
            label,
            CardBudget {
                max_pseudonyms: pseudonyms + 2,
            },
            rng,
        )
        .map_err(|e| format!("registering {label}: {e}"))?;
    user.set_policy(PseudonymPolicy::ReuseK(REUSE_K));
    Ok(user)
}

impl Agents {
    /// Registers builder `thread`'s buyer for `n` lead ops; on
    /// `checkout`, funds it for `n` purchases.
    fn register(
        sys: &Sys,
        workload: Workload,
        thread: usize,
        n: usize,
        seed: u64,
    ) -> Result<Agents, String> {
        let mut rng = rng_for(seed, 100 + thread as u64);
        let per_user = n / REUSE_K as usize + 1;
        let buyer = register(sys, &format!("buyer-{seed}-{thread}"), per_user, &mut rng)?;
        if workload == Workload::Checkout {
            sys.mint.fund_account(&buyer.account, n as u64 * PRICE);
        }
        Ok(Agents { buyer, rng })
    }
}

/// Builds `n` lead-op bodies with builder `thread`'s users.
fn build_leads(
    sys: &Sys,
    workload: Workload,
    items: &[Item],
    thread: usize,
    agents: &mut Agents,
    n: usize,
) -> Result<Vec<(WireRequest, Expect)>, String> {
    let Agents { buyer, rng } = agents;
    let zipf = Zipf::new(items.len(), 1.0);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match workload {
            Workload::Checkout => {
                let item = &items[zipf.sample(rng)];
                let req = purchase_request(sys, buyer, &item.meta, rng)?;
                let expect = Expect::Purchase {
                    content: item.meta.id,
                    pseudonym: req.pseudonym_cert.pseudonym_id(),
                    owner: thread,
                };
                (WireRequest::Purchase(req), expect)
            }
            Workload::Playback => {
                let item = rng.gen_range(0..items.len());
                let content_id = items[item].meta.id;
                (
                    WireRequest::Download(DownloadRequest { content_id }),
                    Expect::Download { item },
                )
            }
        });
    }
    Ok(out)
}

/// A purchase request under the user's pseudonym policy: issues a
/// pseudonym when the policy wants a fresh one, withdraws the coin.
fn purchase_request(
    sys: &Sys,
    user: &mut UserAgent,
    meta: &ContentMeta,
    rng: &mut StdRng,
) -> Result<p2drm_core::protocol::messages::PurchaseRequest, String> {
    sys.ensure_pseudonym(user, rng)
        .map_err(|e| format!("pseudonym issuance: {e}"))?;
    let (_session, req) = PurchaseSession::begin(user, &sys.mint, meta, rng)
        .map_err(|e| format!("coin withdrawal: {e}"))?;
    user.note_pseudonym_use();
    Ok(req)
}

fn side_body(workload: Workload, items: &[Item], rng: &mut StdRng) -> (WireRequest, Expect) {
    match workload {
        Workload::Checkout => {
            let content = items[rng.gen_range(0..items.len())].meta.id;
            (
                WireRequest::Catalog(CatalogRequest {
                    content_id: Some(content),
                }),
                Expect::Quote { content },
            )
        }
        Workload::Playback => (
            WireRequest::CrlSync(CrlSyncRequest {
                license_seq: 0,
                pseudonym_seq: 0,
            }),
            Expect::CrlSync,
        ),
    }
}

/// Interleaves lead and side bodies: every block of `k + 1` slots holds
/// `k` leads and one side op at a seeded position.
fn interleave(
    workload: Workload,
    leads: Vec<(WireRequest, Expect)>,
    items: &[Item],
    first_corr: u64,
    rng: &mut StdRng,
) -> Vec<Request> {
    let spec = workload.spec();
    let k = spec.lead_per_side as usize;
    let mut out = Vec::with_capacity(leads.len() + leads.len() / k);
    let mut leads = leads.into_iter();
    'blocks: loop {
        let side_at = rng.gen_range(0..k + 1);
        for slot in 0..=k {
            let (body, expect) = if slot == side_at {
                side_body(workload, items, rng)
            } else {
                match leads.next() {
                    Some(lead) => lead,
                    None => break 'blocks,
                }
            };
            let corr = first_corr + out.len() as u64;
            out.push(Request {
                op: body.opcode(),
                corr,
                bytes: RequestEnvelope {
                    correlation_id: corr,
                    body,
                }
                .to_bytes(),
                expect,
            });
        }
    }
    out
}

/// Boots the system and pre-builds `open` + `capacity` requests for the
/// workload on `threads` builder threads.
pub fn prepare(
    workload: Workload,
    dir: &Path,
    recorder: Option<Arc<Recorder>>,
    seed: u64,
    open: usize,
    capacity: usize,
    threads: usize,
) -> Result<Env, String> {
    let mut steps_s = Vec::new();
    let mut step = std::time::Instant::now();
    let mut lap = |name: &'static str| {
        steps_s.push((name, step.elapsed().as_secs_f64()));
        step = std::time::Instant::now();
    };
    // Set-up writes go to the log unsynced and are made durable by one
    // flush; the provider is then resumed from the same directory under
    // `SyncEach`, which is what the measured phases run on.
    let mut sys = boot(dir, SyncPolicy::Buffered, seed)?;
    lap("boot");
    let items = publish(&sys, workload, seed)?;
    lap("publish");
    let mut crl_prefill = BTreeSet::new();
    if workload == Workload::Playback {
        let mut rng = rng_for(seed, 3);
        for _ in 0..PLAYBACK_CRL {
            let lid = LicenseId::random(&mut rng);
            sys.provider
                .revoke_license(&lid)
                .map_err(|e| format!("CRL pre-fill: {e}"))?;
            crl_prefill.insert(p2drm_core::entities::provider::license_crl_id(&lid));
        }
    }
    lap("crl");

    let k = workload.spec().lead_per_side as usize;
    let share = |n: usize, t: usize| n / threads + usize::from(t < n % threads);
    let (leads_open, leads_cap) = (open * k / (k + 1), capacity * k / (k + 1));
    let per_thread = |t: usize| share(leads_open, t) + share(leads_cap, t);
    let mut agents = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sys = &sys;
                scope.spawn(move || Agents::register(sys, workload, t, per_thread(t), seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("registration panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    lap("register");
    let bodies = std::thread::scope(|scope| {
        let handles: Vec<_> = agents
            .iter_mut()
            .enumerate()
            .map(|(t, agents)| {
                let n = per_thread(t);
                let (sys, items) = (&sys, &items);
                scope.spawn(move || build_leads(sys, workload, items, t, agents, n))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("builder thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    lap("inputs");
    let (mut lead_open, mut lead_cap) = (Vec::new(), Vec::new());
    for (t, mut b) in bodies.into_iter().enumerate() {
        lead_cap.extend(b.split_off(share(leads_open, t)));
        lead_open.extend(b);
    }
    p2drm_store::ConcurrentKv::flush(sys.provider.store())
        .map_err(|e| format!("flushing set-up writes: {e}"))?;
    let resumed = Identity::of(&sys)?.resume(dir, recorder)?;
    sys.provider = Arc::new(resumed);
    let mut rng = rng_for(seed, 4);
    let open = interleave(workload, lead_open, &items, 1, &mut rng);
    let first_cap = open.len() as u64 + 1;
    let capacity = interleave(workload, lead_cap, &items, first_cap, &mut rng);
    lap("resume");
    Ok(Env {
        sys,
        items: Arc::new(items),
        crl_prefill,
        agents,
        open,
        capacity,
        steps_s,
    })
}
