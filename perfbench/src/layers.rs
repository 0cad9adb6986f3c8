//! Per-layer metrics of a traced run and the per-op waterfall.
//!
//! Two sources, both from the benchmark's own files:
//! * live spans of the traced open-loop half (client connection, service
//!   wrapper, store wrapper), joined on the wire correlation id;
//! * replays after the run: the pki, payment, crypto and codec calls a
//!   request makes, timed on held-out inputs of the same shape against
//!   the same provider and mint.
//!
//! A provider op's self time is its handle span minus the store time its
//! spans cover, minus the replayed children that op makes.

use crate::gen::OpenRun;
use crate::kv::KvCounts;
use crate::setup::{Env, Request, Store, Sys};
use crate::spec::{KEY_BITS, PRICE};
use crate::stats::{median, Latency};
use crate::trace::{self_time, Layer, Part, Span, Waterfall};
use p2drm_core::entities::smartcard::CardBudget;
use p2drm_core::service::{OpCode, RequestEnvelope, ResponseEnvelope};
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use p2drm_net::MetricsSnapshot;
use p2drm_payment::Coin;
use p2drm_pki::cert::PseudonymCertificate;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Held-out inputs for the replays, built during set-up.
pub struct Held {
    certs: Vec<PseudonymCertificate>,
    coins: Vec<Coin>,
    keys: RsaKeyPair,
    seal_to: RsaPublicKey,
}

/// Replays per input kind.
const REPLAYS: usize = 16;

impl Held {
    /// Issues fresh pseudonyms and withdraws coins for a user that takes
    /// no part in the run, and generates a key pair of the provider's size.
    pub fn build(env: &Env, seed: u64) -> Result<Held, String> {
        let sys = &env.sys;
        let mut rng = crate::setup::rng_for(seed, 9);
        let mut user = sys
            .register_user_with_budget(
                &format!("held-out-{seed}"),
                CardBudget {
                    max_pseudonyms: REPLAYS + 2,
                },
                &mut rng,
            )
            .map_err(|e| format!("held-out user: {e}"))?;
        user.set_policy(p2drm_core::entities::user::PseudonymPolicy::FreshPerPurchase);
        sys.mint.fund_account(&user.account, REPLAYS as u64 * PRICE);
        let mut certs = Vec::with_capacity(REPLAYS);
        let mut coins = Vec::with_capacity(REPLAYS);
        for _ in 0..REPLAYS {
            sys.ensure_pseudonym(&mut user, &mut rng)
                .map_err(|e| format!("held-out pseudonym: {e}"))?;
            certs.push(
                user.current_pseudonym()
                    .ok_or("held-out pseudonym missing")?
                    .clone(),
            );
            user.note_pseudonym_use();
            let account = user.account.clone();
            coins.push(
                user.wallet
                    .coin_for_amount(&sys.mint, &account, PRICE, &mut rng)
                    .map_err(|e| format!("held-out coin: {e}"))?,
            );
        }
        let seal_to = certs[0].body.pseudonym_key.clone();
        Ok(Held {
            certs,
            coins,
            keys: RsaKeyPair::generate(KEY_BITS, &mut rng),
            seal_to,
        })
    }
}

/// Counters read before and after the traced window.
#[derive(Clone, Debug)]
pub struct Counters {
    hits: u64,
    misses: u64,
    mint_spent: u64,
    kv: KvCounts,
    fsyncs: u64,
    wal_bytes: u64,
    crl_entries: usize,
    crl_sign_us: f64,
}

impl Counters {
    /// Reads every counter the per-layer metrics difference, and times
    /// signing the license CRL at its current size.
    pub fn read(sys: &Sys, store: &Store) -> Counters {
        let vc = sys.provider.verify_cache_counters();
        let mut b = p2drm_obs::SnapshotBuilder::new();
        p2drm_store::ConcurrentKv::collect_metrics(store, &mut b);
        let fsyncs = b
            .finish()
            .histogram("store_fsync_ns")
            .map_or(0, |s| s.count);
        let now = sys.now();
        Counters {
            hits: vc.hits,
            misses: vc.misses,
            mint_spent: sys.mint.spent_count() as u64,
            kv: store.counts(),
            fsyncs,
            wal_bytes: store.inner().log_bytes(),
            crl_entries: sys.provider.signed_license_crl(now).list.len(),
            crl_sign_us: time_us(5, |_| {
                std::hint::black_box(sys.provider.signed_license_crl(now));
            }),
        }
    }
}

/// Everything [`analyze`] reads.
pub struct Inputs<'a> {
    /// The run's environment (provider, mint, items).
    pub env: &'a Env,
    /// Held-out replay inputs.
    pub held: &'a Held,
    /// Requests of the traced half.
    pub reqs: &'a [Request],
    /// The traced half's results.
    pub run: &'a OpenRun,
    /// Recorder time of the traced half's epoch, ns.
    pub offset_ns: u64,
    /// Spans recorded during the traced half.
    pub spans: &'a [Span],
    /// Counters before the traced half.
    pub before: &'a Counters,
    /// ... and after it.
    pub after: &'a Counters,
    /// Untraced-half latencies (ms) per op, for the overhead ratio.
    pub untraced: &'a [(OpCode, Vec<f64>)],
    /// Server counters.
    pub net: &'a MetricsSnapshot,
    /// The workload's lead and side ops.
    pub lead: OpCode,
    /// ...
    pub side: OpCode,
    /// File the spans are written to.
    pub span_dump: &'a Path,
}

/// Per-layer metrics and the rendered waterfalls.
pub struct Analysis {
    /// `(name, value)`, in the units `PER_LAYER` gives.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines.
    pub text: Vec<String>,
}

/// Ops every traced run reports per-op metrics for (0 when not issued).
pub const OPS: [OpCode; 4] = [
    OpCode::Purchase,
    OpCode::Catalog,
    OpCode::Download,
    OpCode::CrlSync,
];

fn label(op: OpCode) -> &'static str {
    match op {
        OpCode::Purchase => "purchase",
        OpCode::Catalog => "catalog",
        OpCode::Download => "download",
        _ => "crl_sync",
    }
}

/// Median wall time of `f` over `reps` calls, µs.
fn time_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Replayed child costs, µs.
struct Replays {
    verify_miss: f64,
    crl_sign_pseudonym: f64,
    check_coin: f64,
    deposit: f64,
    sign: f64,
    seal: f64,
    verify: f64,
    /// Per op: client request encode, client response decode, server
    /// request decode, server response encode.
    codec: HashMap<u8, [f64; 4]>,
}

fn replay(inp: &Inputs) -> Replays {
    let sys = &inp.env.sys;
    let held = inp.held;
    let epoch = sys.epoch();
    let now = sys.now();
    let verify_miss = time_us(held.certs.len(), |i| {
        let _ = sys.provider.verify_pseudonym(&held.certs[i], epoch);
    });
    let crl_sign_pseudonym = time_us(5, |_| {
        std::hint::black_box(sys.provider.signed_pseudonym_crl(now));
    });
    let check_coin = time_us(held.coins.len(), |i| {
        let _ = sys.mint.check_coin(&held.coins[i]);
    });
    let deposit = time_us(held.coins.len(), |i| {
        let _ = sys.mint.deposit_prechecked(&held.coins[i]);
    });
    let msg = vec![0x5au8; 256];
    let sign = time_us(REPLAYS, |_| {
        std::hint::black_box(held.keys.sign(&msg));
    });
    let sig = held.keys.sign(&msg);
    let verify = time_us(REPLAYS, |_| {
        let _ = std::hint::black_box(held.keys.public().verify(&msg, &sig));
    });
    let mut rng = crate::setup::rng_for(0, 10);
    let seal = time_us(REPLAYS, |_| {
        std::hint::black_box(p2drm_crypto::envelope::seal(
            &held.seal_to,
            &[7u8; 32],
            &mut rng,
        ));
    });

    let mut codec = HashMap::new();
    for op in OPS {
        let reqs: Vec<&Request> = inp
            .reqs
            .iter()
            .filter(|r| r.op == op)
            .take(REPLAYS)
            .collect();
        let replies: Vec<&Vec<u8>> = inp
            .run
            .kept_replies
            .iter()
            .filter(|(i, _)| inp.reqs[*i].op == op)
            .map(|(_, b)| b)
            .collect();
        if reqs.is_empty() || replies.is_empty() {
            continue;
        }
        let decoded: Vec<RequestEnvelope> = reqs
            .iter()
            .filter_map(|r| RequestEnvelope::from_bytes(&r.bytes).ok())
            .collect();
        let responses: Vec<ResponseEnvelope> = replies
            .iter()
            .filter_map(|b| ResponseEnvelope::from_bytes(b).ok())
            .collect();
        let enc = time_us(decoded.len(), |i| {
            std::hint::black_box(decoded[i].to_bytes());
        });
        let dec = time_us(replies.len(), |i| {
            let _ = std::hint::black_box(ResponseEnvelope::from_bytes(replies[i]));
        });
        let sdec = time_us(reqs.len(), |i| {
            let _ = std::hint::black_box(RequestEnvelope::from_bytes(&reqs[i].bytes));
        });
        let senc = time_us(responses.len(), |i| {
            std::hint::black_box(responses[i].to_bytes());
        });
        codec.insert(op.byte(), [enc, dec, sdec, senc]);
    }
    Replays {
        verify_miss,
        crl_sign_pseudonym,
        check_coin,
        deposit,
        sign,
        seal,
        verify,
        codec,
    }
}

/// Computes the per-layer metrics and waterfalls of a traced run, and
/// writes its spans to `inp.span_dump`.
pub fn analyze(inp: Inputs) -> Result<Analysis, String> {
    let r = replay(&inp);
    let first_corr = inp.reqs.first().map_or(0, |r| r.corr);
    let n = inp.reqs.len();

    // Join spans on correlation id: each request's handle span and the
    // store spans inside it.
    let mut service: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut store_spans: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut store_total, mut service_total) = (0u64, 0u64);
    for s in inp.spans {
        let Some(i) = s
            .corr
            .checked_sub(first_corr)
            .map(|i| i as usize)
            .filter(|&i| i < n)
        else {
            continue;
        };
        match s.layer {
            Layer::Service => {
                service[i] = Some((s.start, s.end));
                service_total += s.dur();
            }
            Layer::Store => {
                children[i].push((s.start, s.end));
                let us = s.dur() as f64 / 1e3;
                store_spans.entry(s.what).or_default().push(us);
                store_total += s.dur();
            }
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut inbound = Vec::new();
    let mut outbound = Vec::new();
    let mut per_op: HashMap<u8, OpSamples> = HashMap::new();
    let mut bytes = 0usize;
    let mut completed = 0usize;
    for (i, req) in inp.reqs.iter().enumerate() {
        let (Some(recv), true) = (inp.run.received[i], inp.run.outcomes[i].ok()) else {
            continue;
        };
        completed += 1;
        bytes += req.bytes.len() + inp.run.reply_bytes[i] + 8;
        let sent = inp.offset_ns + inp.run.sent[i];
        let recv = inp.offset_ns + recv;
        let intended = inp.offset_ns + inp.run.intended[i];
        let s = per_op.entry(req.op.byte()).or_default();
        s.observed.push(ms(recv - intended));
        s.late.push(ms(sent.saturating_sub(intended)));
        if let Some((a, b)) = service[i] {
            let own_ns = self_time((a, b), &children[i]);
            let store_ns = (b - a) - own_ns;
            inbound.push(ms(a.saturating_sub(sent)));
            outbound.push(ms(recv.saturating_sub(b)));
            s.inbound.push(ms(a.saturating_sub(sent)));
            s.outbound.push(ms(recv.saturating_sub(b)));
            s.handle.push(ms(b - a));
            s.store.push(ms(store_ns));
            s.handle_minus_store.push(ms(own_ns));
        }
    }
    let completed_f = completed.max(1) as f64;
    let lookups = (inp.after.hits + inp.after.misses) - (inp.before.hits + inp.before.misses);
    let hits = inp.after.hits - inp.before.hits;
    let miss_share = if lookups == 0 {
        0.0
    } else {
        1.0 - hits as f64 / lookups as f64
    };
    let kv = inp.after.kv.since(&inp.before.kv);
    let crl_sign_us = inp.after.crl_sign_us;

    // Replayed children per op, µs.
    let child = |op: OpCode| -> Vec<(&'static str, f64)> {
        let c = r.codec.get(&op.byte()).map_or(0.0, |c| c[2] + c[3]);
        let verify_pseudonym = miss_share * r.verify_miss;
        match op {
            OpCode::Purchase => vec![
                ("codec", c),
                ("pki", verify_pseudonym),
                ("payment", r.check_coin + r.deposit),
                ("crypto", r.sign + r.seal),
            ],
            OpCode::CrlSync => vec![
                ("codec", c),
                ("pki", crl_sign_us + r.crl_sign_pseudonym),
                ("payment", 0.0),
                ("crypto", 0.0),
            ],
            _ => vec![
                ("codec", c),
                ("pki", 0.0),
                ("payment", 0.0),
                ("crypto", 0.0),
            ],
        }
    };

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    let inb = Latency::of(&inbound);
    put("net.inbound_p50_ms", inb.as_ref().map_or(0.0, |l| l.p50));
    put("net.inbound_p99_ms", inb.as_ref().map_or(0.0, |l| l.tail));
    put("net.outbound_p50_ms", median(&outbound).unwrap_or(0.0));
    put("net.bytes_per_op", bytes as f64 / completed_f);
    put("net.busy_rejections", inp.net.busy_rejections as f64);
    put("net.decode_errors", inp.net.decode_errors as f64);
    let mut text = Vec::new();
    let mut self_us = HashMap::new();
    for op in OPS {
        let s = per_op.get(&op.byte());
        let handle = s.and_then(|s| median(&s.handle)).unwrap_or(0.0);
        put(&format!("service.{}_p50_ms", label(op)), handle);
        let kids: f64 = child(op).iter().map(|(_, v)| v).sum();
        let own = s
            .and_then(|s| median(&s.handle_minus_store))
            .map_or(0.0, |v| v * 1e3 - kids);
        self_us.insert(op.byte(), own);
    }
    for op in OPS {
        let c = r.codec.get(&op.byte()).copied().unwrap_or_default();
        put(&format!("codec.{}_request_encode_us", label(op)), c[0]);
        put(&format!("codec.{}_response_decode_us", label(op)), c[1]);
    }
    for op in OPS {
        put(
            &format!("provider.{}_self_us", label(op)),
            self_us[&op.byte()],
        );
    }
    put(
        "pki.vcache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    put("pki.vcache_lookups", lookups as f64);
    put("pki.verify_miss_us", r.verify_miss);
    put("pki.crl_entries", inp.after.crl_entries as f64);
    put("pki.crl_sign_ms", inp.after.crl_sign_us / 1e3);
    put("payment.check_coin_us", r.check_coin);
    put("payment.deposit_us", r.deposit);
    put(
        "payment.deposits_per_op",
        (inp.after.mint_spent - inp.before.mint_spent) as f64 / completed_f,
    );
    put("crypto.sign_us", r.sign);
    put("crypto.seal_us", r.seal);
    put("crypto.verify_us", r.verify);
    let store = |what: &str| store_spans.get(what).and_then(|v| Latency::of(v));
    put("store.put_p50_us", store("put").map_or(0.0, |l| l.p50));
    put("store.put_p99_us", store("put").map_or(0.0, |l| l.tail));
    put("store.writes_per_op", kv.writes() as f64 / completed_f);
    put(
        "store.fsyncs_per_op",
        (inp.after.fsyncs - inp.before.fsyncs) as f64 / completed_f,
    );
    put(
        "store.wal_bytes_per_op",
        (inp.after.wal_bytes - inp.before.wal_bytes) as f64 / completed_f,
    );
    put(
        "store.busy_share",
        if service_total == 0 {
            0.0
        } else {
            store_total as f64 / service_total as f64
        },
    );
    for (slot, op) in [("lead", inp.lead), ("side", inp.side)] {
        let traced = per_op.get(&op.byte()).and_then(|s| median(&s.observed));
        let untraced = inp
            .untraced
            .iter()
            .find(|(o, _)| *o == op)
            .and_then(|(_, v)| median(v));
        let ratio = match (traced, untraced) {
            (Some(t), Some(u)) if u > 0.0 => t / u,
            _ => 0.0,
        };
        put(&format!("trace.overhead_{slot}"), ratio);
    }

    // Waterfalls.
    for op in OPS {
        let Some(s) = per_op.get(&op.byte()) else {
            continue;
        };
        let observed = median(&s.observed).unwrap_or(0.0);
        let mut parts = vec![
            Part {
                name: "gen.late".into(),
                ms: median(&s.late).unwrap_or(0.0),
            },
            Part {
                name: "net.inbound".into(),
                ms: median(&s.inbound).unwrap_or(0.0),
            },
        ];
        for (name, us) in child(op) {
            parts.push(Part {
                name: name.into(),
                ms: us / 1e3,
            });
        }
        parts.push(Part {
            name: "store".into(),
            ms: median(&s.store).unwrap_or(0.0),
        });
        parts.push(Part {
            name: "provider.self".into(),
            ms: self_us[&op.byte()] / 1e3,
        });
        parts.push(Part {
            name: "net.outbound".into(),
            ms: median(&s.outbound).unwrap_or(0.0),
        });
        let w = Waterfall::new(label(op), observed, parts);
        text.extend(w.render().lines().map(str::to_string));
    }

    write_spans(inp.span_dump, &inp)?;
    text.push(format!("spans written to {}", inp.span_dump.display()));
    Ok(Analysis { metrics: m, text })
}

/// Raw samples of one op in the traced half (ms).
#[derive(Default)]
struct OpSamples {
    observed: Vec<f64>,
    late: Vec<f64>,
    inbound: Vec<f64>,
    outbound: Vec<f64>,
    handle: Vec<f64>,
    store: Vec<f64>,
    handle_minus_store: Vec<f64>,
}

fn write_spans(path: &Path, inp: &Inputs) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut out = String::from("corr\tlayer\twhat\tstart_ns\tend_ns\n");
    for (i, req) in inp.reqs.iter().enumerate() {
        if let Some(recv) = inp.run.received[i] {
            out.push_str(&format!(
                "{}\tclient\t{}\t{}\t{}\n",
                req.corr,
                label(req.op),
                inp.offset_ns + inp.run.sent[i],
                inp.offset_ns + recv
            ));
        }
    }
    for s in inp.spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            s.corr,
            s.layer.label(),
            s.what,
            s.start,
            s.end
        ));
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
