//! The load generator: an open-loop phase on a seeded Poisson schedule
//! and a closed-loop capacity phase, both over keep-alive loopback TCP.
//!
//! Open loop: one sender thread writes each pre-built frame when it is
//! due, alternating over the connections; one receiver thread waits for
//! replies on all of them through the repository's `Poller`. Latency is
//! taken from each request's *intended* send time, so a stalled server
//! or a late sender both show up in it. `TcpTransport` is not used here
//! because its `complete` holds the connection lock across the blocking
//! read, so a sender could not submit while a reply is awaited.
//!
//! Closed loop: one thread per `TcpTransport` connection, each keeping
//! [`CAPACITY_DEPTH`] requests in flight.

use crate::gate::{self, GateError};
use crate::setup::{Expect, Item, Request};
use crate::spec::CAPACITY_DEPTH;
use p2drm_core::license::License;
use p2drm_core::service::{correlation_hint, Transport, WireResponse};
use p2drm_net::{Poller, TcpTransport};
use p2drm_pki::crl::SignedCrl;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// No reply arrived.
    Missing,
    /// The server answered with an error envelope (refused or shed).
    Refused,
    /// Purchase: the license.
    License(Box<License>),
    /// Any other op answered as expected.
    Done,
}

impl Outcome {
    /// Whether the op completed.
    pub fn ok(&self) -> bool {
        matches!(self, Outcome::License(_) | Outcome::Done)
    }
}

/// What the receiver keeps from CRL syncs for the post-run checks.
#[derive(Default)]
pub struct CrlSeen {
    /// Latest license CRL received (by arrival).
    pub latest: Option<SignedCrl>,
}

/// Checks one reply against its request and reduces it to an outcome.
/// Downloads must carry the published ciphertext; quotes the asked item;
/// CRL syncs a well-formed list. Licenses are checked after the run.
pub fn settle(
    req: &Request,
    reply: &[u8],
    items: &[Item],
    crls: &mut CrlSeen,
) -> Result<Outcome, GateError> {
    match (&req.expect, gate::decode_reply(req.op, req.corr, reply)?) {
        (_, WireResponse::Error(_)) => Ok(Outcome::Refused),
        (Expect::Purchase { .. }, WireResponse::Purchase(r)) => {
            Ok(Outcome::License(Box::new(r.license)))
        }
        (Expect::Quote { content }, WireResponse::Catalog(r)) => {
            if r.items.len() != 1 || r.items[0].id != *content {
                return Err(GateError(format!("quote for {content} answered wrongly")));
            }
            Ok(Outcome::Done)
        }
        (Expect::Download { item }, WireResponse::Download(r)) => {
            let want = &items[*item];
            if r.nonce != want.nonce || r.ciphertext != want.ciphertext {
                return Err(GateError(format!(
                    "download of {} returned other bytes",
                    want.meta.id
                )));
            }
            Ok(Outcome::Done)
        }
        (Expect::CrlSync, WireResponse::CrlSync(r)) => {
            let n = r.license_crl.list.len();
            if r.license_crl.sequence < n as u64 {
                return Err(GateError(format!(
                    "CRL of {n} ids carries sequence {}",
                    r.license_crl.sequence
                )));
            }
            crls.latest = Some(r.license_crl);
            Ok(Outcome::Done)
        }
        (_, other) => Err(GateError(format!(
            "{} reply does not match its request",
            other.label()
        ))),
    }
}

/// Result of the open-loop phase. Times are ns since [`OpenRun::epoch`].
pub struct OpenRun {
    /// When each request was due.
    pub intended: Vec<u64>,
    /// When it was written.
    pub sent: Vec<u64>,
    /// When its reply frame was complete.
    pub received: Vec<Option<u64>>,
    /// How it ended.
    pub outcomes: Vec<Outcome>,
    /// Reply payload bytes per request.
    pub reply_bytes: Vec<usize>,
    /// Reply envelopes kept for codec timing (first few per op).
    pub kept_replies: Vec<(usize, Vec<u8>)>,
    /// CRL syncs seen.
    pub crls: CrlSeen,
    /// Wall time from the first due send to the last reply.
    pub wall: Duration,
    /// Process CPU time (ms) just before each marked send, then once more
    /// after the last reply.
    pub cpu_marks: Vec<f64>,
    /// The instant the schedule counts from.
    pub epoch: Instant,
}

/// Seeded Poisson arrival times (ns after the phase start) for `n`
/// requests at `rate` per second, starting `lead_in` after the epoch.
pub fn poisson_schedule(
    n: usize,
    rate: f64,
    lead_in: Duration,
    rng: &mut impl rand::Rng,
) -> Vec<u64> {
    let mut t = lead_in.as_secs_f64();
    (0..n)
        .map(|_| {
            let at = t;
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (at * 1e9) as u64
        })
        .collect()
}

fn frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

fn connect(addr: SocketAddr) -> Result<TcpStream, GateError> {
    let s = TcpStream::connect(addr).map_err(|e| GateError(format!("connect {addr}: {e}")))?;
    s.set_nodelay(true)
        .map_err(|e| GateError(format!("nodelay: {e}")))?;
    Ok(s)
}

/// How long replies may still arrive after the last due send before the
/// missing ones count as [`Outcome::Missing`].
const DRAIN: Duration = Duration::from_secs(10);
/// Replies per op kept for codec timing.
const KEEP_PER_OP: usize = 16;

/// Runs the open-loop phase: once connected, `requests[i]` is sent at
/// `epoch + schedule[i]` over `conns` connections, and process CPU time is
/// read just before each send whose index is in `marks`.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    requests: &[Request],
    schedule: &[u64],
    marks: &[usize],
    items: &[Item],
) -> Result<OpenRun, GateError> {
    assert_eq!(requests.len(), schedule.len());
    let n = requests.len();
    let first_corr = requests.first().map_or(1, |r| r.corr);
    let frames: Vec<Vec<u8>> = requests.iter().map(|r| frame(&r.bytes)).collect();
    let mut writers = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for _ in 0..conns.max(1) {
        let w = connect(addr)?;
        let r = w
            .try_clone()
            .map_err(|e| GateError(format!("clone socket: {e}")))?;
        writers.push(w);
        readers.push(r);
    }
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_nanos(schedule.last().copied().unwrap_or(0)) + DRAIN;

    let (sent, recv) = std::thread::scope(|scope| {
        let receiver =
            scope.spawn(|| receive(&mut readers, requests, first_corr, items, epoch, deadline));
        let mut sent = Vec::with_capacity(n);
        let mut cpu_marks = Vec::with_capacity(marks.len() + 1);
        let mut send_err = None;
        for (i, f) in frames.iter().enumerate() {
            if marks.contains(&i) {
                cpu_marks.push(crate::sys::cpu_ms());
            }
            let due = epoch + Duration::from_nanos(schedule[i]);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            let c = i % writers.len();
            if let Err(e) = writers[c].write_all(f) {
                send_err = Some(GateError(format!("send failed: {e}")));
                break;
            }
            sent.push(at.saturating_duration_since(epoch).as_nanos() as u64);
        }
        let recv = receiver
            .join()
            .unwrap_or_else(|_| Err(GateError("receiver thread panicked".into())));
        cpu_marks.push(crate::sys::cpu_ms());
        match send_err {
            Some(e) => (Err(e), recv),
            None => (Ok((sent, cpu_marks)), recv),
        }
    });
    let (sent, cpu_marks) = sent?;
    let (received, outcomes, reply_bytes, kept_replies, crls) = recv?;
    let last = received.iter().flatten().max().copied().unwrap_or(0);
    let first = schedule.first().copied().unwrap_or(0);
    Ok(OpenRun {
        intended: schedule.to_vec(),
        sent,
        received,
        outcomes,
        reply_bytes,
        kept_replies,
        crls,
        wall: Duration::from_nanos(last.saturating_sub(first)),
        cpu_marks,
        epoch,
    })
}

type Received = (
    Vec<Option<u64>>,
    Vec<Outcome>,
    Vec<usize>,
    Vec<(usize, Vec<u8>)>,
    CrlSeen,
);

/// Receiver loop: reads frames from every connection as they become
/// readable, stamps their arrival, then checks them.
fn receive(
    readers: &mut [TcpStream],
    requests: &[Request],
    first_corr: u64,
    items: &[Item],
    epoch: Instant,
    deadline: Instant,
) -> Result<Received, GateError> {
    let n = requests.len();
    let io = |e: std::io::Error| GateError(format!("receive: {e}"));
    let mut poller = Poller::new().map_err(io)?;
    for (i, r) in readers.iter().enumerate() {
        poller
            .register(r.as_raw_fd(), i as u64, true, false)
            .map_err(io)?;
    }
    let mut received = vec![None; n];
    let mut outcomes = vec![Outcome::Missing; n];
    let mut reply_bytes = vec![0usize; n];
    let mut kept = Vec::new();
    let mut kept_count = std::collections::HashMap::new();
    let mut crls = CrlSeen::default();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut chunk = vec![0u8; 1 << 18];
    let mut events = Vec::new();
    let mut done = 0;
    while done < n {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        poller
            .wait(
                &mut events,
                Some((deadline - now).min(Duration::from_millis(50))),
            )
            .map_err(io)?;
        for ev in &events {
            let c = ev.token as usize;
            let got = readers[c].read(&mut chunk).map_err(io)?;
            if got == 0 {
                return Err(GateError("server closed a connection mid-run".into()));
            }
            let at = Instant::now();
            let buf = &mut bufs[c];
            buf.extend_from_slice(&chunk[..got]);
            let mut off = 0;
            while buf.len() - off >= 4 {
                let len =
                    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
                if buf.len() - off - 4 < len {
                    break;
                }
                let payload = &buf[off + 4..off + 4 + len];
                off += 4 + len;
                let corr = correlation_hint(payload);
                let idx = corr
                    .checked_sub(first_corr)
                    .map(|i| i as usize)
                    .filter(|&i| i < n)
                    .ok_or_else(|| GateError(format!("reply for unknown correlation {corr}")))?;
                if received[idx].is_some() {
                    return Err(GateError(format!("second reply for correlation {corr}")));
                }
                received[idx] = Some(at.saturating_duration_since(epoch).as_nanos() as u64);
                reply_bytes[idx] = payload.len();
                outcomes[idx] = settle(&requests[idx], payload, items, &mut crls)?;
                let k = kept_count.entry(requests[idx].op.byte()).or_insert(0usize);
                if *k < KEEP_PER_OP && outcomes[idx].ok() {
                    *k += 1;
                    kept.push((idx, payload.to_vec()));
                }
                done += 1;
            }
            buf.drain(..off);
        }
    }
    Ok((received, outcomes, reply_bytes, kept, crls))
}

/// Result of the closed-loop capacity phase.
pub struct CapacityRun {
    /// Outcome per request (same order as the input).
    pub outcomes: Vec<Outcome>,
    /// Wall time from the start barrier until both connections finished.
    pub wall: Duration,
    /// CRL syncs seen.
    pub crls: CrlSeen,
}

/// Runs `requests` closed-loop over `conns` `TcpTransport` connections,
/// request `i` on connection `i % conns`, each keeping
/// [`CAPACITY_DEPTH`] requests in flight.
pub fn capacity(
    addr: SocketAddr,
    conns: usize,
    requests: &[Request],
    items: &[Item],
) -> Result<CapacityRun, GateError> {
    let conns = conns.max(1);
    let transports = (0..conns)
        .map(|_| TcpTransport::connect(addr).map_err(|e| GateError(format!("connect: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(conns + 1);
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                    barrier.wait();
                    closed_loop(t, requests, &mine, items)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(GateError("capacity thread panicked".into())))
            })
            .collect();
        (start, results)
    });
    let wall = start.elapsed();
    let mut outcomes = vec![Outcome::Missing; requests.len()];
    let mut crls = CrlSeen::default();
    for r in results {
        let (mine, seen) = r?;
        for (idx, o) in mine {
            outcomes[idx] = o;
        }
        if seen.latest.is_some() {
            crls.latest = seen.latest;
        }
    }
    Ok(CapacityRun {
        outcomes,
        wall,
        crls,
    })
}

fn closed_loop(
    t: &TcpTransport,
    requests: &[Request],
    mine: &[usize],
    items: &[Item],
) -> Result<(Vec<(usize, Outcome)>, CrlSeen), GateError> {
    let tx = |e: p2drm_core::service::TransportError| GateError(format!("capacity phase: {e}"));
    let mut by_corr = std::collections::HashMap::with_capacity(mine.len());
    let mut out = Vec::with_capacity(mine.len());
    let mut crls = CrlSeen::default();
    let mut next = 0;
    while next < mine.len().min(CAPACITY_DEPTH) {
        let r = &requests[mine[next]];
        t.submit(r.corr, &r.bytes).map_err(tx)?;
        by_corr.insert(r.corr, mine[next]);
        next += 1;
    }
    while !by_corr.is_empty() {
        let (corr, reply) = t
            .complete(None)
            .map_err(tx)?
            .ok_or_else(|| GateError("capacity phase: transport idle with requests out".into()))?;
        let idx = by_corr
            .remove(&corr)
            .ok_or_else(|| GateError(format!("reply for unknown correlation {corr}")))?;
        out.push((idx, settle(&requests[idx], &reply, items, &mut crls)?));
        if next < mine.len() {
            let r = &requests[mine[next]];
            t.submit(r.corr, &r.bytes).map_err(tx)?;
            by_corr.insert(r.corr, mine[next]);
            next += 1;
        }
    }
    Ok((out, crls))
}
