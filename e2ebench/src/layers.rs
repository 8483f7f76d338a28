//! Traced runs only: the wire-layer attribution phase and the direct,
//! independently timed calls into single layers.

use crate::oracle::{epoch_stamp, Oracle, Request, Tally};
use crate::setup::Stack;
use crate::stats::{median, Counters, Samples};
use crate::workloads::{MixInputs, Rng, Window, MATRIX_SOURCES};
use phast_core::{HeteroAnswer, HeteroQuery, Phast, RestrictedMultiEngine, SelectionBuilder};
use phast_graph::{Graph, Vertex};
use phast_metrics::{MetricCustomizer, MetricWeights};
use phast_serve::protocol::{decode_reply, encode_answer};
use phast_serve::server::handle_line;
use phast_serve::Client;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Means of the calls a `tree` request crosses on its way over the wire,
/// each timed on its own under the same two-connection load.
#[derive(Default)]
pub struct Attribution {
    /// Through the router: send, read the reply line, decode it.
    pub roundtrip: Samples,
    /// The same, sent straight to the server.
    pub direct: Samples,
    /// `server::handle_line` in process: parse, scheduler call, encode.
    pub handle_line: Samples,
    /// `Service::call_with_epoch` in process.
    pub call: Samples,
    pub encode: Samples,
    pub decode: Samples,
    pub reply_bytes: Vec<usize>,
    pub tally: Tally,
    /// Router counters across the window.
    pub router: Counters,
}

impl Attribution {
    pub fn relay_ms(&self) -> f64 {
        self.roundtrip.mean() - self.direct.mean()
    }

    /// What the direct round trip spends outside `handle_line` and the
    /// client's decode: socket writes and reads, framing, the kernel.
    pub fn socket_ms(&self) -> f64 {
        self.direct.mean() - self.handle_line.mean() - self.decode.mean()
    }

    /// Share of the routed round trip not covered by the scheduler call,
    /// encode, decode and relay.
    pub fn unattributed_ratio(&self) -> f64 {
        let covered = self.call.mean() + self.encode.mean() + self.decode.mean() + self.relay_ms();
        1.0 - covered / self.roundtrip.mean()
    }
}

/// Two closed-loop threads, one connection each. Thread 0 alternates a
/// routed round trip with an in-process scheduler call (plus a timed
/// encode of its answer); thread 1 alternates a direct round trip with an
/// in-process `handle_line`.
pub fn attribute(
    stack: &Stack,
    oracle: &Oracle,
    pool: &[Vertex],
    seed: u64,
    len: Duration,
) -> Result<Attribution, String> {
    let router = stack
        .router
        .as_ref()
        .ok_or("attribution needs the router")?;
    let server = stack
        .server
        .as_ref()
        .ok_or("attribution needs the server")?;
    let addrs = [router.local_addr(), server.local_addr()];
    let w = Window::after_warmup(len);
    let before = Counters::from_report(&router.stats().report("router"));
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                scope.spawn(move || -> Result<Attribution, String> {
                    let mut client =
                        Client::connect(addrs[t]).map_err(|e| format!("connecting: {e}"))?;
                    let mut rng = Rng::new(seed ^ (0xC0 + t as u64));
                    let mut a = Attribution::default();
                    let mut i = 0u64;
                    while Instant::now() < w.end {
                        i += 1;
                        let measured = Instant::now() >= w.start;
                        let source = rng.pick(pool);
                        let request = Request::Tree(source);
                        let line = format!("{{\"id\":{i},\"op\":\"tree\",\"source\":{source}}}");
                        if i.is_multiple_of(2) {
                            let t0 = Instant::now();
                            let text = client
                                .roundtrip_line(&line)
                                .map_err(|e| format!("round trip: {e}"))?;
                            let t1 = Instant::now();
                            let decoded = decode_reply(&text);
                            let t2 = Instant::now();
                            a.tally
                                .record_decoded(oracle, &request, decoded, epoch_stamp(&text));
                            if measured {
                                if t == 0 {
                                    &mut a.roundtrip
                                } else {
                                    &mut a.direct
                                }
                                .push(t2 - t0);
                                a.decode.push(t2 - t1);
                                a.reply_bytes.push(text.len());
                            }
                        } else if t == 0 {
                            let t0 = Instant::now();
                            let reply = stack
                                .service
                                .call_with_epoch(HeteroQuery::Tree { source }, None);
                            let t1 = Instant::now();
                            if let Ok((answer, epoch)) = &reply {
                                let t2 = Instant::now();
                                black_box(encode_answer(Some(i as i64), answer, Some(*epoch)));
                                if measured {
                                    a.encode.push(t2.elapsed());
                                }
                            }
                            a.tally.record(oracle, &request, &reply);
                            if measured {
                                a.call.push(t1 - t0);
                            }
                        } else {
                            let t0 = Instant::now();
                            let text = handle_line(&stack.service, &line);
                            if measured {
                                a.handle_line.push(t0.elapsed());
                            }
                            a.tally.record_line(oracle, &request, &text);
                        }
                    }
                    Ok(a)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("attribution thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = Attribution::default();
    for part in parts {
        let p = part?;
        for (dst, src) in [
            (&mut out.roundtrip, &p.roundtrip),
            (&mut out.direct, &p.direct),
            (&mut out.handle_line, &p.handle_line),
            (&mut out.call, &p.call),
            (&mut out.encode, &p.encode),
            (&mut out.decode, &p.decode),
        ] {
            dst.extend(src);
        }
        out.reply_bytes.extend(&p.reply_bytes);
        out.tally.add(&p.tally);
    }
    out.router = before.delta(&Counters::from_report(&router.stats().report("router")));
    Ok(out)
}

/// Direct calls into single layers, timed without load.
pub struct Calibration {
    pub p2p_query_us: f64,
    pub rphast_select_ms: f64,
    pub rphast_sweep_ms: f64,
    /// `MetricCustomizer::new`, when this run had to freeze one itself.
    pub freeze_s: Option<f64>,
    pub customize_s: f64,
    /// One `BatchRunner::run` of `width` trees, per tree.
    pub runner_ms_per_tree: f64,
    pub scan_bytes: usize,
    pub scan_ms: f64,
    pub tally: Tally,
}

/// Median time of a sequential read over `bytes` bytes: the yardstick of
/// the paper's §VIII-B (a sweep should stay within a small factor of a
/// scan of its bytes).
pub fn scan(bytes: usize) -> (usize, f64) {
    let words: Vec<u64> = (0..bytes.div_ceil(8) as u64).collect();
    let runs = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for &w in black_box(&words) {
                acc = acc.wrapping_add(w);
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (words.len() * 8, median(runs))
}

/// Bytes one sweep of `width` lanes moves, computed from the arrays: the
/// downward CSR (`first`, 8-byte arcs), the visited marks, and each label
/// row read and written once.
pub fn sweep_bytes(phast: &Phast, width: f64) -> f64 {
    let n = phast.num_vertices() as f64;
    4.0 * (n + 1.0) + 8.0 * phast.down().arcs().len() as f64 + n + 8.0 * n * width
}

/// `mix` checks the `p2p` and matrix calls, `trees` (with its pool) the
/// batch runner's trees.
pub fn calibrate(
    stack: &Stack,
    graph: &Graph,
    mix: (&Oracle, &MixInputs<'_>),
    trees: (&Oracle, &[Vertex]),
    next_metric: &MetricWeights,
    width: usize,
    scan_bytes: f64,
) -> Result<Calibration, String> {
    let (oracle, inputs) = mix;
    let pool = inputs.pool;
    let epoch = stack.service.current_epoch();
    let phast: &Phast = &epoch.phast;
    let mut tally = Tally::default();
    let mut rng = Rng::new(0xCA11);

    let hierarchy = epoch
        .hierarchy
        .as_deref()
        .ok_or("the serving epoch has no hierarchy")?;
    let mut ch = phast_ch::ChQuery::new(hierarchy);
    let pairs: Vec<(Vertex, Vertex)> = (0..2000)
        .map(|_| (rng.pick(pool), rng.pick(inputs.universe)))
        .collect();
    let t = Instant::now();
    let got: Vec<_> = pairs.iter().map(|&(s, d)| ch.query(s, d)).collect();
    let p2p_query_us = t.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;
    for (&(s, d), g) in pairs.iter().zip(got) {
        let answer = HeteroAnswer::Point(g.unwrap_or(phast_graph::INF));
        tally.record(oracle, &Request::Point(s, d), &Ok((answer, epoch.id)));
    }

    let mut builder = SelectionBuilder::new(phast);
    let mut engine = RestrictedMultiEngine::new(phast, stack.service.config().max_k);
    let (mut select, mut sweep) = (Vec::new(), Vec::new());
    for set in inputs.target_sets {
        let t = Instant::now();
        let sel = builder.build(set);
        select.push(t.elapsed().as_secs_f64() * 1e3);
        let sources = rng.distinct(pool, MATRIX_SOURCES);
        let t = Instant::now();
        let rows = engine.matrix(&sel, &sources);
        sweep.push(t.elapsed().as_secs_f64() * 1e3);
        let answer = HeteroAnswer::Matrix(rows);
        tally.record(
            oracle,
            &Request::Matrix(sources, set.clone()),
            &Ok((answer, epoch.id)),
        );
    }

    let (customizer, freeze_s) = match &stack.customizer {
        Some(c) => (Arc::clone(c), None),
        None => {
            let t = Instant::now();
            let c = MetricCustomizer::new(graph.clone(), hierarchy)
                .map_err(|e| format!("freezing the topology: {e}"))?;
            (Arc::new(c), Some(t.elapsed().as_secs_f64()))
        }
    };
    let t = Instant::now();
    black_box(
        customizer
            .build(next_metric)
            .map_err(|e| format!("customizing: {e}"))?,
    );
    let customize_s = t.elapsed().as_secs_f64();

    let (tree_oracle, tree_pool) = trees;
    let queries: Vec<HeteroQuery> = (0..width)
        .map(|_| HeteroQuery::Tree {
            source: rng.pick(tree_pool),
        })
        .collect();
    let mut runner = stack.service.batch_runner(&epoch);
    let mut runs = Vec::new();
    for i in 0..22 {
        let t = Instant::now();
        let answers = runner.run(&queries);
        if i >= 2 {
            runs.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for (q, a) in queries.iter().zip(answers) {
            tally.record(tree_oracle, &Request::Tree(q.source()), &Ok((a, epoch.id)));
        }
    }
    let runner_ms_per_tree = median(runs) / width as f64;

    let (scan_bytes, scan_ms) = scan(scan_bytes as usize);
    Ok(Calibration {
        p2p_query_us,
        rphast_select_ms: select.iter().sum::<f64>() / select.len() as f64,
        rphast_sweep_ms: sweep.iter().sum::<f64>() / sweep.len() as f64,
        freeze_s,
        customize_s,
        runner_ms_per_tree,
        scan_bytes,
        scan_ms,
        tally,
    })
}
