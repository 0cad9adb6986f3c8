//! The benchmark's own tests: the store wrapper is a faithful
//! pass-through, the span and percentile arithmetic is right, and the
//! correctness gate rejects wrong outputs.

use p2drm_core::protocol::messages::{DownloadResponse, LicenseStatus, PurchaseResponse};
use p2drm_core::service::{OpCode, ResponseEnvelope, WireResponse};
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::LicenseId;
use p2drm_crypto::rng::test_rng;
use p2drm_store::{ConcurrentKv, MemKv, ShardedKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use perfbench::gate::{self, Ledger};
use perfbench::kv::BenchKv;
use perfbench::stats::{self, Latency};
use perfbench::trace::{covered, self_time, Part, Recorder, Waterfall};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one scripted op sequence against two stores and asserts every
/// result is identical.
fn same_results(a: &impl ConcurrentKv, b: &impl ConcurrentKv) {
    let keys: Vec<Vec<u8>> = (0..40u8)
        .map(|i| format!("k/{}", i % 13).into_bytes())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let v = [i as u8; 3];
        match i % 5 {
            0 => assert_eq!(a.put(k, &v).is_ok(), b.put(k, &v).is_ok()),
            1 => assert_eq!(
                a.insert_if_absent(k, &v).expect("insert"),
                b.insert_if_absent(k, &v).expect("insert")
            ),
            2 => assert_eq!(a.delete(k).expect("delete"), b.delete(k).expect("delete")),
            3 => assert_eq!(a.contains(k), b.contains(k)),
            _ => assert_eq!(a.get(k), b.get(k)),
        }
        assert_eq!(a.len(), b.len());
    }
    let mut sa = a.scan_prefix(b"k/");
    let mut sb = b.scan_prefix(b"k/");
    sa.sort();
    sb.sort();
    assert_eq!(sa, sb);
    assert!(a.flush().is_ok() && b.flush().is_ok());
}

#[test]
fn store_wrapper_matches_the_wrapped_wal_store() {
    let config = WalShardedConfig {
        shards: 4,
        policy: SyncPolicy::SyncEach,
    };
    let (da, db) = (temp_dir("wrapped"), temp_dir("plain"));
    let recorder = Arc::new(Recorder::new(Instant::now(), 64));
    recorder.set_on(true);
    let wrapped = BenchKv::new(
        WalShardedKv::open(&da, config).expect("open").0,
        Some(recorder.clone()),
    );
    let plain = WalShardedKv::open(&db, config).expect("open").0;
    same_results(&wrapped, &plain);
    let c = wrapped.counts();
    assert_eq!((c.puts, c.inserts, c.deletes), (8, 8, 8));
    assert_eq!(c.gets, 16);
    assert_eq!(recorder.take().len(), 40, "one span per counted call");
    drop((wrapped, plain));
    let _ = std::fs::remove_dir_all(da);
    let _ = std::fs::remove_dir_all(db);
}

#[test]
fn store_wrapper_matches_the_wrapped_mem_store() {
    let wrapped = BenchKv::new(ShardedKv::new_with(4, |_| MemKv::new()), None);
    let plain = ShardedKv::new_with(4, |_| MemKv::new());
    same_results(&wrapped, &plain);
    assert_eq!(wrapped.counts().writes(), 24);
}

#[test]
fn covered_merges_overlaps_and_clips_to_the_parent() {
    assert_eq!(covered((0, 100), &[]), 0);
    assert_eq!(covered((0, 100), &[(10, 20), (30, 40)]), 20);
    assert_eq!(covered((0, 100), &[(10, 30), (20, 40)]), 30);
    assert_eq!(covered((0, 100), &[(10, 40), (20, 30)]), 30);
    assert_eq!(covered((0, 100), &[(40, 50), (10, 20), (45, 60)]), 30);
    assert_eq!(covered((50, 100), &[(0, 60), (90, 200)]), 20);
    assert_eq!(covered((50, 100), &[(0, 10), (120, 130)]), 0);
    assert_eq!(covered((0, 100), &[(20, 20)]), 0);
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    assert_eq!(self_time((100, 200), &[]), 100);
    assert_eq!(self_time((100, 200), &[(110, 150), (140, 160)]), 50);
    assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
}

#[test]
fn waterfall_bars_sum_to_the_observed_median() {
    let parts = vec![
        Part {
            name: "net.inbound".into(),
            ms: 0.1,
        },
        Part {
            name: "store".into(),
            ms: 0.35,
        },
    ];
    let w = Waterfall::new("purchase", 0.5, parts);
    assert!((w.unattributed_ms - 0.05).abs() < 1e-12);
    assert!((w.total_ms() - 0.5).abs() < 1e-12);
    let over = Waterfall::new(
        "download",
        0.2,
        vec![Part {
            name: "codec".into(),
            ms: 0.3,
        }],
    );
    assert!(
        over.unattributed_ms < 0.0,
        "medians do not add: the remainder may be negative"
    );
    assert!((over.total_ms() - 0.2).abs() < 1e-12);
    assert!(w.render().contains("unattributed"));
}

#[test]
fn nearest_rank_percentiles_on_synthetic_samples() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let l = Latency::of(&samples).expect("non-empty");
    assert_eq!(l.count, 1000);
    assert_eq!(l.p50, 500.0);
    assert_eq!(l.tail_q, 0.99);
    assert_eq!(l.tail, 990.0);
    assert_eq!(l.max, 1000.0);
    assert_eq!(stats::beyond(0.99, 1000), 10);
    assert_eq!(stats::rank(0.5, 1), 0);
    assert_eq!(stats::quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    assert_eq!(stats::quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::median(&[]), None);
    assert!(Latency::of(&[]).is_none());
}

#[test]
fn tail_falls_back_until_ten_samples_lie_beyond_it() {
    assert_eq!(stats::supported_tail(1000, 0.99), 0.99);
    assert_eq!(stats::supported_tail(999, 0.99), 0.95);
    assert_eq!(stats::supported_tail(500, 0.99), 0.95);
    assert_eq!(stats::supported_tail(150, 0.99), 0.9);
    assert_eq!(stats::supported_tail(20, 0.99), 0.5);
    let l = Latency::of(&(1..=200).map(f64::from).collect::<Vec<_>>()).expect("non-empty");
    assert_eq!(l.tail_q, 0.95);
    assert_eq!(l.tail, 190.0);
}

#[test]
fn lateness_is_measured_against_the_schedule() {
    let intended = [0.0, 1.0, 2.0, 3.0];
    let actual = [0.05, 0.9, 2.5, 3.0];
    assert_eq!(
        stats::lateness(&intended, &actual),
        vec![0.05, 0.0, 0.5, 0.0]
    );
    let mut late = vec![0.1; 990];
    late.extend(vec![30.0; 10]);
    assert!(
        stats::schedule_kept(&late, 20.0),
        "10 of 1000 late: p99 still on time"
    );
    late.push(30.0);
    assert!(
        !stats::schedule_kept(&late, 20.0),
        "11 of 1001 late: p99 is late"
    );
}

#[test]
fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
    let mut a = perfbench::setup::rng_for(7, 5);
    let mut b = perfbench::setup::rng_for(7, 5);
    let lead_in = std::time::Duration::from_millis(20);
    let s1 = perfbench::gen::poisson_schedule(20_000, 1000.0, lead_in, &mut a);
    let s2 = perfbench::gen::poisson_schedule(20_000, 1000.0, lead_in, &mut b);
    assert_eq!(s1, s2);
    assert_eq!(s1[0], 20_000_000);
    assert!(s1.windows(2).all(|w| w[0] <= w[1]));
    let span_s = (s1[s1.len() - 1] - s1[0]) as f64 / 1e9;
    assert!(
        (span_s - 20.0).abs() < 1.0,
        "20k arrivals at 1000/s span ~20 s, got {span_s}"
    );
}

fn download_reply(corr: u64) -> Vec<u8> {
    ResponseEnvelope {
        correlation_id: corr,
        body: WireResponse::Download(DownloadResponse {
            nonce: [1; 12],
            ciphertext: vec![7; 64],
        }),
    }
    .to_bytes()
}

#[test]
fn gate_accepts_the_expected_reply() {
    let reply = download_reply(9);
    assert!(matches!(
        gate::decode_reply(OpCode::Download, 9, &reply),
        Ok(WireResponse::Download(_))
    ));
}

#[test]
fn gate_rejects_corrupted_replies() {
    let reply = download_reply(9);
    let truncated = &reply[..reply.len() - 5];
    assert!(gate::decode_reply(OpCode::Download, 9, truncated).is_err());
    let mut trailing = reply.clone();
    trailing.push(0);
    assert!(gate::decode_reply(OpCode::Download, 9, &trailing).is_err());
    let mut version = reply.clone();
    version[0] ^= 0xff;
    assert!(gate::decode_reply(OpCode::Download, 9, &version).is_err());
    assert!(
        gate::decode_reply(OpCode::Download, 10, &reply).is_err(),
        "another request's reply"
    );
    assert!(
        gate::decode_reply(OpCode::CrlSync, 9, &reply).is_err(),
        "another op's variant"
    );
}

#[test]
fn gate_rejects_a_tampered_or_missing_license() {
    let mut rng = test_rng(41);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let content = sys.publish_content("item", 100, b"payload", &mut rng);
    let other = sys.publish_content("other", 100, b"other", &mut rng);
    let mut user = sys.register_user("buyer", &mut rng).expect("register");
    sys.fund(&user, 100);
    let license = sys
        .purchase(&mut user, content, &mut rng)
        .expect("purchase");
    let key = sys.provider.public_key();
    gate::check_license(&license, key, &content).expect("a genuine license passes");
    assert!(
        gate::check_license(&license, key, &other).is_err(),
        "wrong item"
    );
    let mut tampered = license.clone();
    tampered.body.issued_epoch += 1;
    assert!(
        gate::check_license(&tampered, key, &content).is_err(),
        "bad signature"
    );

    // A purchase reply whose license bytes were flipped in transit.
    let mut reply = ResponseEnvelope {
        correlation_id: 3,
        body: WireResponse::Purchase(PurchaseResponse {
            license: license.clone(),
        }),
    }
    .to_bytes();
    let at = reply.len() - 40;
    reply[at] ^= 0x01;
    match gate::decode_reply(OpCode::Purchase, 3, &reply) {
        Err(_) => {}
        Ok(WireResponse::Purchase(r)) => {
            assert!(gate::check_license(&r.license, key, &content).is_err())
        }
        Ok(other) => panic!("corrupted purchase reply accepted as {other:?}"),
    }

    // One acknowledged purchase that left no license behind.
    let ledger = Ledger {
        licenses_before: 10,
        licenses_after: 12,
        deposited_before: 0,
        deposited_after: 300,
        purchases: 3,
        price: 100,
    };
    assert!(gate::reconcile(&ledger).is_err(), "missing license");
    assert!(gate::reconcile(&Ledger {
        licenses_after: 13,
        ..ledger
    })
    .is_ok());
    assert!(
        gate::reconcile(&Ledger {
            licenses_after: 13,
            deposited_after: 200,
            ..ledger
        })
        .is_err(),
        "coin not conserved"
    );

    // A license the reopened store no longer knows.
    let known = license.id();
    let lost = LicenseId::from_label("lost");
    let status = |id: &LicenseId| {
        if *id == known {
            LicenseStatus::Active {
                holder: p2drm_pki::cert::KeyId::of_rsa(&license.body.holder),
            }
        } else {
            LicenseStatus::Unknown
        }
    };
    assert!(gate::check_recovered(status, &[known]).is_ok());
    assert!(gate::check_recovered(status, &[known, lost]).is_err());
}

#[test]
fn gate_requires_the_crl_to_hold_exactly_the_revoked_ids() {
    let mut rng = test_rng(42);
    let sys = System::bootstrap(SystemConfig::fast_test(), &mut rng);
    let ids: Vec<LicenseId> = (0..3).map(|_| LicenseId::random(&mut rng)).collect();
    for id in &ids[..2] {
        sys.provider.revoke_license(id).expect("revoke");
    }
    let crl = sys.provider.signed_license_crl(sys.now());
    let key = sys.provider.public_key();
    let crl_id = p2drm_core::entities::provider::license_crl_id;
    let exact: BTreeSet<_> = ids[..2].iter().map(crl_id).collect();
    gate::check_crl(&crl, key, &exact).expect("exact set passes");
    let more: BTreeSet<_> = ids.iter().map(crl_id).collect();
    assert!(gate::check_crl(&crl, key, &more).is_err(), "missing id");
    let fewer: BTreeSet<_> = ids[..1].iter().map(crl_id).collect();
    assert!(gate::check_crl(&crl, key, &fewer).is_err(), "unexpected id");
    let mut forged = crl.clone();
    forged.sequence += 1;
    assert!(
        gate::check_crl(&forged, key, &exact).is_err(),
        "bad signature"
    );
}

#[test]
fn settle_rejects_a_download_with_other_bytes() {
    use p2drm_core::content::ContentMeta;
    use p2drm_core::protocol::messages::DownloadRequest;
    use p2drm_core::service::{RequestEnvelope, WireRequest};
    use perfbench::gen::{settle, CrlSeen, Outcome};
    use perfbench::setup::{Expect, Item, Request};

    let id = p2drm_core::ContentId::from_label("item");
    let items = vec![Item {
        meta: ContentMeta {
            id,
            title: "item".into(),
            price: 100,
            size: 64,
            required_attribute: None,
        },
        payload: vec![0; 64],
        nonce: [1; 12],
        ciphertext: vec![7; 64],
    }];
    let req = Request {
        op: OpCode::Download,
        corr: 9,
        bytes: RequestEnvelope {
            correlation_id: 9,
            body: WireRequest::Download(DownloadRequest { content_id: id }),
        }
        .to_bytes(),
        expect: Expect::Download { item: 0 },
    };
    let mut crls = CrlSeen::default();
    assert!(matches!(
        settle(&req, &download_reply(9), &items, &mut crls),
        Ok(Outcome::Done)
    ));
    let flipped = ResponseEnvelope {
        correlation_id: 9,
        body: WireResponse::Download(DownloadResponse {
            nonce: [1; 12],
            ciphertext: vec![8; 64],
        }),
    }
    .to_bytes();
    assert!(settle(&req, &flipped, &items, &mut crls).is_err());
}

#[test]
fn slice_medians_ignore_a_minority_of_noisy_slices() {
    let mut samples = Vec::new();
    for slice in 0..5 {
        let base = if slice == 3 { 10.0 } else { 1.0 };
        samples.extend((0..50).map(|i| (slice, base + i as f64 / 100.0)));
    }
    samples.push((5, 99.0)); // a slice below the minimum sample count
    let p50s = stats::per_slice(&samples, 20, |l| l.p50);
    assert_eq!(p50s.len(), 5, "the short slice is skipped");
    let p50 = stats::median(&p50s).expect("slices");
    assert!((p50 - 1.24).abs() < 1e-9, "got {p50}");
    assert!(stats::per_slice(&[], 20, |l| l.p50).is_empty());
}
