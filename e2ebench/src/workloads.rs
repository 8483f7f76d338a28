//! Load generators. Each phase drives the stack for a fixed time after a
//! warm-up, checks every reply against the oracle, and reads the
//! service's counters as deltas across the measured window only.

use crate::oracle::{epoch_stamp, Oracle, Request, Tally};
use crate::setup::Stack;
use crate::stats::{Counters, Samples};
use crate::trace::{Span, SpanLog};
use phast_core::{HeteroAnswer, HeteroQuery};
use phast_graph::Vertex;
use phast_metrics::MetricWeights;
use phast_serve::protocol::decode_reply;
use phast_serve::{Client, ServeError};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Excluded from the start of every measured window: connections, first
/// sweeps, and the queue settling after the previous phase.
pub const WARMUP: Duration = Duration::from_millis(300);

/// Outstanding requests in the saturation phase: 4 × the default `max_k`.
pub const OUTSTANDING: usize = 64;

/// The open-loop rate of `tree_inproc` phase A, in trees per second:
/// about half the saturated rate this benchmark measured at its defining
/// commit (2-core x86-64 VM, default `ServeConfig`). Frozen so that later
/// commits are measured at the same offered load.
pub const OPEN_LOOP_RATE: f64 = 3_000.0;

/// An open-loop generator fell behind, and its run is invalid, when its
/// sends ran later than `LATE_LIMIT_MS` at the 99th percentile, or when it
/// left more than `BACKLOG_LIMIT` of the sends due in its windows unsent.
pub const LATE_LIMIT_MS: f64 = 20.0;
pub const BACKLOG_LIMIT: f64 = 0.01;

/// `mixed_swap` request shapes.
pub const MATRIX_SOURCES: usize = 64;
pub const MANY_TARGETS: usize = 64;

/// Time between metric updates in `mixed_swap`, and the margin kept at the
/// end of a window so the last update publishes inside it.
pub const SWAP_EVERY: Duration = Duration::from_millis(3000);
pub const SWAP_MARGIN: Duration = Duration::from_millis(1000);

/// Deterministic choices (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// `k` distinct items of `pool` in random order.
    pub fn distinct<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut v = pool.to_vec();
        let k = k.min(v.len());
        for i in 0..k {
            let j = i + self.below(v.len() - i);
            v.swap(i, j);
        }
        v.truncate(k);
        v
    }

    /// Index in `0..n` with probability proportional to `1 / (i + 1)`.
    pub fn skewed(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut x = (self.next_u64() as f64 / u64::MAX as f64) * total;
        for i in 0..n {
            x -= 1.0 / (i + 1) as f64;
            if x <= 0.0 {
                return i;
            }
        }
        n - 1
    }
}

/// The measured window of a phase: `[start, end)`.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn after_warmup(len: Duration) -> Window {
        let start = Instant::now() + WARMUP;
        Window {
            start,
            end: start + len,
        }
    }

    pub fn bounds(&self) -> (Instant, Instant) {
        (self.start, self.end)
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Counters of the in-process service and (when present) the router,
/// snapshotted at the window edges by the calling thread.
fn snapshot(stack: &Stack) -> (Counters, Counters) {
    let svc = Counters::from_report(&stack.service.stats().report("serve"));
    let router = stack
        .router
        .as_ref()
        .map(|r| Counters::from_report(&r.stats().report("router")))
        .unwrap_or_default();
    (svc, router)
}

/// What every phase reports besides its own latencies.
pub struct PhaseCommon {
    pub tally: Tally,
    pub window: Window,
    /// Service counters across the window.
    pub svc: Counters,
    /// Router counters across the window (empty without a router).
    pub router: Counters,
    /// How late each send ran against its intended time: the schedule
    /// (open loop) or the previous reply (closed loop).
    pub late: Samples,
    pub spans: Vec<Span>,
}

impl PhaseCommon {
    fn new(window: Window) -> PhaseCommon {
        PhaseCommon {
            tally: Tally::default(),
            window,
            svc: Counters::default(),
            router: Counters::default(),
            late: Samples::default(),
            spans: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- tree_tcp

pub struct TcpTrees {
    pub common: PhaseCommon,
    /// Request sent to reply decoded, per tree.
    pub lat: Samples,
    /// Service counters across the window as the wire `stats` op reports
    /// them (read by the first connection at its first request boundary
    /// after each window edge).
    pub wire: Counters,
}

/// Two closed-loop connections through the router, each sending `tree`
/// requests for seeded pool sources.
pub fn tree_tcp(
    stack: &Stack,
    oracle: &Oracle,
    pool: &[Vertex],
    seed: u64,
    len: Duration,
    log_spans: bool,
    origin: Instant,
) -> Result<TcpTrees, String> {
    let addr = stack
        .router
        .as_ref()
        .ok_or("tree_tcp needs the router")?
        .local_addr();
    let w = Window::after_warmup(len);
    let wire: Mutex<Option<(Counters, Counters)>> = Mutex::new(None);
    let (outcomes, (svc0, r0), (svc1, r1)) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let wire = &wire;
                scope.spawn(move || -> Result<_, String> {
                    let mut client = Client::connect(addr)
                        .map_err(|e| format!("connecting to the router: {e}"))?;
                    let mut rng = Rng::new(seed ^ ((t + 1) * 0x1000_0001));
                    let mut log = SpanLog::new(log_spans, t + 1, origin);
                    let (mut lat, mut late, mut tally) =
                        (Samples::default(), Samples::default(), Tally::default());
                    let mut wire_before = None;
                    let mut last_reply: Option<Instant> = None;
                    let mut req = t << 40;
                    loop {
                        let now = Instant::now();
                        if now >= w.end {
                            break;
                        }
                        let measured = now >= w.start;
                        if t == 0 && measured && wire_before.is_none() {
                            wire_before = Some(Counters::from_stats_reply(
                                &client.stats().map_err(|e| format!("stats op: {e}"))?,
                            ));
                        }
                        req += 1;
                        let source = rng.pick(pool);
                        let line = format!("{{\"id\":{req},\"op\":\"tree\",\"source\":{source}}}");
                        let t0 = Instant::now();
                        if let (true, Some(prev)) = (measured, last_reply) {
                            late.push(t0 - prev);
                        }
                        let root = log.open("client.request", 0, req);
                        let reply = log.time("client.roundtrip_line", root, req, || {
                            client.roundtrip_line(&line)
                        });
                        let request = Request::Tree(source);
                        match reply {
                            Ok(text) => {
                                let decoded = log.time("protocol.decode_reply", root, req, || {
                                    decode_reply(&text)
                                });
                                log.time("oracle.check", root, req, || {
                                    tally.record_decoded(
                                        oracle,
                                        &request,
                                        decoded,
                                        epoch_stamp(&text),
                                    )
                                });
                            }
                            Err(_) => {
                                tally.attempted += 1;
                                tally.errors += 1;
                            }
                        }
                        log.close(root);
                        let t1 = Instant::now();
                        last_reply = Some(t1);
                        if measured {
                            lat.push(t1 - t0);
                        }
                    }
                    if t == 0 {
                        let after = Counters::from_stats_reply(
                            &client.stats().map_err(|e| format!("stats op: {e}"))?,
                        );
                        let before = wire_before.ok_or("the measured window saw no request")?;
                        *wire.lock().expect("wire snapshot lock") = Some((before, after));
                    }
                    Ok((lat, late, tally, log.into_spans()))
                })
            })
            .collect();
        sleep_until(w.start);
        let start = snapshot(stack);
        sleep_until(w.end);
        let end = snapshot(stack);
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("tree_tcp generator panicked"))
            .collect();
        (outcomes, start, end)
    });
    let mut out = TcpTrees {
        common: PhaseCommon {
            svc: svc0.delta(&svc1),
            router: r0.delta(&r1),
            ..PhaseCommon::new(w)
        },
        lat: Samples::default(),
        wire: Counters::default(),
    };
    for o in outcomes {
        let (lat, late, tally, spans) = o?;
        out.lat.extend(&lat);
        out.common.late.extend(&late);
        out.common.tally.add(&tally);
        out.common.spans.extend(spans);
    }
    let (before, after) = wire
        .into_inner()
        .expect("wire snapshot lock")
        .ok_or("no wire stats snapshot")?;
    out.wire = before.delta(&after);
    Ok(out)
}

// ------------------------------------------------------------- tree_inproc

pub struct OpenLoop {
    pub common: PhaseCommon,
    /// Scheduled send time to reply, per tree.
    pub lat: Samples,
    /// Actual submit to reply, per tree.
    pub call: Samples,
    /// Sends that were due inside the window but not issued by its end.
    pub backlog: u64,
}

/// One in-flight in-process request.
struct InFlight {
    rx: std::sync::mpsc::Receiver<Result<HeteroAnswer, ServeError>>,
    due: Instant,
    sent: Instant,
    source: Vertex,
    epoch: u64,
    span: u64,
    req: u64,
}

/// Collects every in-flight reply that has arrived, oldest first; blocks
/// on the oldest for at most `wait`. Returns the completed requests with
/// their observed completion time.
fn collect(
    inflight: &mut VecDeque<InFlight>,
    wait: Option<Duration>,
    oracle: &Oracle,
    tally: &mut Tally,
    log: &mut SpanLog,
) -> Vec<(InFlight, Instant, bool)> {
    let mut done = Vec::new();
    if let (Some(front), Some(wait)) = (inflight.front(), wait) {
        match front.rx.recv_timeout(wait) {
            Ok(reply) => {
                let f = inflight.pop_front().expect("front observed");
                let at = Instant::now();
                let ok = finish(&f, reply, oracle, tally, log);
                done.push((f, at, ok));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let f = inflight.pop_front().expect("front observed");
                let ok = finish(
                    &f,
                    Err(ServeError::new(
                        phast_serve::ErrorKind::Internal,
                        "reply dropped",
                    )),
                    oracle,
                    tally,
                    log,
                );
                done.push((f, Instant::now(), ok));
            }
        }
    }
    let mut i = 0;
    while i < inflight.len() {
        match inflight[i].rx.try_recv() {
            Ok(reply) => {
                let f = inflight.remove(i).expect("index in range");
                let at = Instant::now();
                let ok = finish(&f, reply, oracle, tally, log);
                done.push((f, at, ok));
            }
            Err(_) => i += 1,
        }
    }
    done
}

fn finish(
    f: &InFlight,
    reply: Result<HeteroAnswer, ServeError>,
    oracle: &Oracle,
    tally: &mut Tally,
    log: &mut SpanLog,
) -> bool {
    let ok = log.time("oracle.check", f.span, f.req, || {
        tally.record(
            oracle,
            &Request::Tree(f.source),
            &reply.map(|a| (a, f.epoch)),
        )
    });
    log.close(f.span);
    ok
}

fn submit(
    stack: &Stack,
    source: Vertex,
    due: Instant,
    req: u64,
    tally: &mut Tally,
    log: &mut SpanLog,
) -> Option<InFlight> {
    let span = log.open("serve.request", 0, req);
    let sent = Instant::now();
    let epoch = stack.service.epoch_id();
    match log.time("serve.submit", span, req, || {
        stack.service.submit(HeteroQuery::Tree { source }, None)
    }) {
        Ok(rx) => Some(InFlight {
            rx,
            due,
            sent,
            source,
            epoch,
            span,
            req,
        }),
        Err(_) => {
            log.close(span);
            tally.attempted += 1;
            tally.errors += 1;
            None
        }
    }
}

/// Phase A: `tree` requests submitted on a fixed schedule by one thread,
/// which waits on the oldest reply between sends and never spins.
pub fn open_loop(
    stack: &Stack,
    oracle: &Oracle,
    pool: &[Vertex],
    seed: u64,
    rate: f64,
    len: Duration,
    log: &mut SpanLog,
) -> OpenLoop {
    let period = Duration::from_secs_f64(1.0 / rate);
    let w = Window::after_warmup(len);
    let t0 = Instant::now();
    let mut rng = Rng::new(seed ^ 0xA);
    let mut out = OpenLoop {
        common: PhaseCommon::new(w),
        lat: Samples::default(),
        call: Samples::default(),
        backlog: 0,
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut start_snap = None;
    let mut next = 0u64;
    let record = |out: &mut OpenLoop, done: Vec<(InFlight, Instant, bool)>| {
        for (f, at, _) in done {
            if f.due >= w.start && f.due < w.end {
                out.lat.push(at - f.due);
                out.call.push(at - f.sent);
            }
        }
    };
    loop {
        let now = Instant::now();
        if start_snap.is_none() && now >= w.start {
            start_snap = Some(snapshot(stack));
        }
        let due = t0 + period.mul_f64(next as f64);
        if due >= w.end || now >= w.end {
            break;
        }
        if now >= due {
            if due >= w.start {
                out.common.late.push(now - due);
            }
            next += 1;
            let source = rng.pick(pool);
            if let Some(f) = submit(stack, source, due, next, &mut out.common.tally, log) {
                inflight.push_back(f);
            }
            continue;
        }
        let done = if inflight.is_empty() {
            std::thread::sleep(due - now);
            Vec::new()
        } else {
            collect(
                &mut inflight,
                Some(due - now),
                oracle,
                &mut out.common.tally,
                log,
            )
        };
        record(&mut out, done);
    }
    // Sends the schedule wanted inside the window but the generator had
    // not issued when the window closed; they are never sent.
    let due_by_end = ((w.end - t0).as_secs_f64() / period.as_secs_f64()).ceil() as u64;
    out.backlog = due_by_end.saturating_sub(next);
    let end_snap = snapshot(stack);
    while !inflight.is_empty() {
        let done = collect(
            &mut inflight,
            Some(Duration::from_secs(10)),
            oracle,
            &mut out.common.tally,
            log,
        );
        record(&mut out, done);
    }
    let (s0, r0) = start_snap.unwrap_or_else(|| end_snap.clone());
    out.common.svc = s0.delta(&end_snap.0);
    out.common.router = r0.delta(&end_snap.1);
    out
}

pub struct Saturation {
    pub common: PhaseCommon,
    /// Submit to reply, per tree.
    pub lat: Samples,
}

/// Phase B: a fixed count of `tree` requests outstanding; each reply is
/// replaced by a new request.
pub fn saturate(
    stack: &Stack,
    oracle: &Oracle,
    pool: &[Vertex],
    seed: u64,
    len: Duration,
    log: &mut SpanLog,
) -> Saturation {
    let w = Window::after_warmup(len);
    let mut rng = Rng::new(seed ^ 0xB);
    let mut out = Saturation {
        common: PhaseCommon::new(w),
        lat: Samples::default(),
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut start_snap = None;
    let mut req = 0u64;
    let mut last_reply: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if start_snap.is_none() && now >= w.start {
            start_snap = Some(snapshot(stack));
        }
        if now >= w.end {
            break;
        }
        while inflight.len() < OUTSTANDING {
            req += 1;
            let sent = Instant::now();
            if let (true, Some(prev)) = (sent >= w.start, last_reply) {
                out.common.late.push(sent.saturating_duration_since(prev));
            }
            let source = rng.pick(pool);
            match submit(stack, source, sent, req, &mut out.common.tally, log) {
                Some(f) => inflight.push_back(f),
                None => break,
            }
        }
        for (f, at, _) in collect(
            &mut inflight,
            Some(Duration::from_secs(10)),
            oracle,
            &mut out.common.tally,
            log,
        ) {
            last_reply = Some(at);
            if at >= w.start && at < w.end {
                out.lat.push(at - f.sent);
            }
        }
    }
    let end_snap = snapshot(stack);
    while !inflight.is_empty() {
        collect(
            &mut inflight,
            Some(Duration::from_secs(10)),
            oracle,
            &mut out.common.tally,
            log,
        );
    }
    let (s0, r0) = start_snap.unwrap_or_else(|| end_snap.clone());
    out.common.svc = s0.delta(&end_snap.0);
    out.common.router = r0.delta(&end_snap.1);
    out
}

// -------------------------------------------------------------- mixed_swap

/// Inputs of the small-reply traffic.
pub struct MixInputs<'a> {
    /// Sources for matrix rows, `p2p` and `many`.
    pub pool: &'a [Vertex],
    /// Fixed target lists, drawn with a skew; twice the selection LRU.
    pub target_sets: &'a [Vec<Vertex>],
    /// Union of the target sets: every `p2p`/`many` target comes from it.
    pub universe: &'a [Vertex],
}

/// The metric updates of one window: version `v` is written when the
/// previous one has been observed published and `SWAP_EVERY` has passed.
pub struct SwapPlan<'a> {
    /// Every metric the run may publish, in version order (index 0 is
    /// version 1).
    pub metrics: &'a [MetricWeights],
    pub path: &'a Path,
    /// Versions already written before this window.
    pub written_before: usize,
}

pub struct Mix {
    pub common: PhaseCommon,
    pub matrix: Samples,
    pub p2p: Samples,
    pub many: Samples,
    /// Submit to reply of lane-shaped calls (`p2p`, `many`).
    pub call: Samples,
    /// Weights file written to the first reply stamped with its epoch.
    pub publish: Samples,
    /// Versions written in total after this window.
    pub written: usize,
}

fn write_metric(path: &Path, m: &MetricWeights) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let body = serde_json::to_string(m).map_err(|e| format!("serializing metric: {e}"))?;
    std::fs::write(&tmp, body).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("publishing {}: {e}", path.display()))
}

/// When each epoch was first seen stamped on a reply.
struct FirstSeen {
    max: AtomicU64,
    at: Mutex<Vec<(u64, Instant)>>,
}

impl FirstSeen {
    fn note(&self, epoch: u64) {
        if epoch > self.max.load(Ordering::Relaxed) {
            let now = Instant::now();
            let mut at = self.at.lock().expect("first-seen lock");
            if epoch > self.max.load(Ordering::Relaxed) {
                self.max.store(epoch, Ordering::Relaxed);
                at.push((epoch, now));
            }
        }
    }

    fn get(&self, epoch: u64) -> Option<Instant> {
        self.at
            .lock()
            .expect("first-seen lock")
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, t)| *t)
    }
}

/// Two in-process threads: closed-loop `matrix` requests (thread A, which
/// also writes the metric updates when `swaps` is given), and alternating
/// lone `p2p` and `many` requests (thread B).
#[allow(clippy::too_many_arguments)]
pub fn mixed(
    stack: &Stack,
    oracle: &Oracle,
    inputs: &MixInputs<'_>,
    swaps: Option<SwapPlan<'_>>,
    seed: u64,
    len: Duration,
    log_spans: bool,
    origin: Instant,
) -> Result<Mix, String> {
    let w = Window::after_warmup(len);
    let service = &stack.service;
    let seen = FirstSeen {
        max: AtomicU64::new(service.epoch_id()),
        at: Mutex::new(Vec::new()),
    };
    let written_before = swaps.as_ref().map_or(0, |s| s.written_before);
    let (a, b, (svc0, r0), (svc1, r1)) = std::thread::scope(|scope| {
        let seen = &seen;
        let swaps = &swaps;
        let thread_a = scope.spawn(move || -> Result<_, String> {
            let mut rng = Rng::new(seed ^ 0xAA);
            let mut log = SpanLog::new(log_spans, 1, origin);
            let (mut lat, mut late, mut tally) =
                (Samples::default(), Samples::default(), Tally::default());
            let mut writes: Vec<Instant> = Vec::new();
            let mut written = written_before;
            let mut next_write = w.start + Duration::from_millis(300);
            let mut req = 1u64 << 40;
            loop {
                let now = Instant::now();
                if now >= w.end {
                    break;
                }
                if let Some(plan) = swaps {
                    let published = service.epoch_id() > written as u64;
                    if now >= next_write
                        && published
                        && now + SWAP_MARGIN < w.end
                        && written < plan.metrics.len()
                    {
                        late.push(now - next_write);
                        write_metric(plan.path, &plan.metrics[written])?;
                        writes.push(Instant::now());
                        written += 1;
                        next_write = now + SWAP_EVERY;
                    }
                }
                req += 1;
                let set = &inputs.target_sets[rng.skewed(inputs.target_sets.len())];
                let sources = rng.distinct(inputs.pool, MATRIX_SOURCES);
                let request = Request::Matrix(sources.clone(), set.clone());
                let root = log.open("serve.request", 0, req);
                let t0 = Instant::now();
                let reply = log.time("serve.matrix_with_epoch", root, req, || {
                    service.matrix_with_epoch(sources, set.clone(), None)
                });
                let t1 = Instant::now();
                if let Ok((_, e)) = &reply {
                    seen.note(*e);
                }
                log.time("oracle.check", root, req, || {
                    tally.record(
                        oracle,
                        &request,
                        &reply.map(|(rows, e)| (HeteroAnswer::Matrix(rows), e)),
                    )
                });
                log.close(root);
                if t0 >= w.start {
                    lat.push(t1 - t0);
                }
            }
            Ok((lat, late, tally, writes, written, log.into_spans()))
        });
        let thread_b = scope.spawn(move || {
            let mut rng = Rng::new(seed ^ 0xBB);
            let mut log = SpanLog::new(log_spans, 2, origin);
            let (mut p2p, mut many, mut late, mut tally) = (
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Tally::default(),
            );
            let mut req = 2u64 << 40;
            let mut last_reply: Option<Instant> = None;
            loop {
                let now = Instant::now();
                if now >= w.end {
                    break;
                }
                req += 1;
                let source = rng.pick(inputs.pool);
                let (query, request, name) = if req.is_multiple_of(2) {
                    let target = rng.pick(inputs.universe);
                    (
                        HeteroQuery::Point { source, target },
                        Request::Point(source, target),
                        "serve.call_with_epoch.p2p",
                    )
                } else {
                    let targets: Vec<Vertex> = (0..MANY_TARGETS)
                        .map(|_| rng.pick(inputs.universe))
                        .collect();
                    (
                        HeteroQuery::Many {
                            source,
                            targets: targets.clone(),
                        },
                        Request::Many(source, targets),
                        "serve.call_with_epoch.many",
                    )
                };
                let root = log.open("serve.request", 0, req);
                let t0 = Instant::now();
                if let (true, Some(prev)) = (t0 >= w.start, last_reply) {
                    late.push(t0 - prev);
                }
                let reply = log.time(name, root, req, || service.call_with_epoch(query, None));
                let t1 = Instant::now();
                if let Ok((_, e)) = &reply {
                    seen.note(*e);
                }
                log.time("oracle.check", root, req, || {
                    tally.record(oracle, &request, &reply)
                });
                log.close(root);
                last_reply = Some(Instant::now());
                if t0 >= w.start {
                    match request {
                        Request::Point(..) => p2p.push(t1 - t0),
                        _ => many.push(t1 - t0),
                    }
                }
            }
            (p2p, many, late, tally, log.into_spans())
        });
        sleep_until(w.start);
        let start = snapshot(stack);
        sleep_until(w.end);
        let end = snapshot(stack);
        let a = thread_a.join().expect("matrix generator panicked");
        let b = thread_b.join().expect("p2p/many generator panicked");
        (a, b, start, end)
    });
    let (matrix, late_a, tally_a, writes, written, spans_a) = a?;
    let (p2p, many, late_b, tally_b, spans_b) = b;
    let mut common = PhaseCommon {
        svc: svc0.delta(&svc1),
        router: r0.delta(&r1),
        ..PhaseCommon::new(w)
    };
    common.tally.add(&tally_a);
    common.tally.add(&tally_b);
    common.late.extend(&late_a);
    common.late.extend(&late_b);
    common.spans.extend(spans_a);
    common.spans.extend(spans_b);
    let mut call = Samples::default();
    call.extend(&p2p);
    call.extend(&many);
    let mut out = Mix {
        common,
        matrix,
        p2p,
        many,
        call,
        publish: Samples::default(),
        written,
    };
    // Epoch `e` serves version `e - 1`. A version written late in the
    // window may have published after the last reply: ask until a reply
    // carries its epoch.
    for (i, &at) in writes.iter().enumerate() {
        let epoch = (written_before + i) as u64 + 2;
        let first = match seen.get(epoch) {
            Some(t) => t,
            None => first_reply_on(stack, oracle, inputs, epoch, &mut out.common.tally)?,
        };
        out.publish.push(first - at);
    }
    Ok(out)
}

/// Sends lone `p2p` requests until one is answered on `epoch`.
fn first_reply_on(
    stack: &Stack,
    oracle: &Oracle,
    inputs: &MixInputs<'_>,
    epoch: u64,
    tally: &mut Tally,
) -> Result<Instant, String> {
    let give_up = Instant::now() + Duration::from_secs(30);
    let (source, target) = (inputs.pool[0], inputs.universe[0]);
    while Instant::now() < give_up {
        let reply = stack
            .service
            .call_with_epoch(HeteroQuery::Point { source, target }, None);
        let at = Instant::now();
        let got = reply.as_ref().map(|(_, e)| *e).ok();
        tally.record(oracle, &Request::Point(source, target), &reply);
        if got.is_some_and(|e| e >= epoch) {
            return Ok(at);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("metric epoch {epoch} was never published"))
}

/// Republishes the serving metric as a new epoch `n` times, each followed
/// by lone `tree` requests until one is answered on the new epoch. The
/// publish path of workloads that run no customizer.
pub fn republish(
    stack: &Stack,
    oracle: &Oracle,
    pool: &[Vertex],
    n: usize,
) -> Result<(Samples, Tally), String> {
    let (mut publish, mut tally) = (Samples::default(), Tally::default());
    for i in 0..n {
        let current = stack.service.current_epoch();
        let t0 = Instant::now();
        let id = stack
            .service
            .swap_epoch(current.phast.clone(), current.hierarchy.clone())
            .map_err(|e| format!("republishing the metric: {e}"))?;
        drop(current);
        let source = pool[i % pool.len()];
        loop {
            let reply = stack
                .service
                .call_with_epoch(HeteroQuery::Tree { source }, None);
            let got = reply.as_ref().map(|(_, e)| *e).ok();
            tally.record(oracle, &Request::Tree(source), &reply);
            match got {
                Some(e) if e >= id => break,
                Some(_) => {}
                None => return Err("a tree request failed after a republish".into()),
            }
        }
        publish.push(t0.elapsed());
    }
    Ok((publish, tally))
}
