//! End-to-end serving benchmark for the PHAST workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tree_tcp|tree_inproc|mixed_swap --seed N --seconds S --trace 0|1
//! ```
//!
//! Brings the serving stack up from a fixed 50k-vertex instance, drives
//! one workload for `--seconds`, checks every reply against a Dijkstra
//! oracle, and prints one JSON line: the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced run (`--trace 1`). README.md
//! explains the workloads, the metrics and the layer map.

mod layers;
mod oracle;
mod setup;
mod stats;
mod trace;
mod workloads;

use layers::{sweep_bytes, Attribution, Calibration};
use oracle::{reweight, Oracle, Tally};
use phast_bench::workload::InstanceConfig;
use phast_graph::{Graph, Vertex};
use phast_metrics::MetricWeights;
use setup::{SetupTimes, Stack};
use stats::{peak_rss_mb, ratio, Samples, Steady};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Span, SpanLog};
use workloads::{
    MixInputs, PhaseCommon, SwapPlan, Window, BACKLOG_LIMIT, LATE_LIMIT_MS, OPEN_LOOP_RATE,
    SWAP_EVERY, SWAP_MARGIN,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TreeTcp,
    TreeInproc,
    MixedSwap,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tree_tcp" => Some(Workload::TreeTcp),
            "tree_inproc" => Some(Workload::TreeInproc),
            "mixed_swap" => Some(Workload::MixedSwap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TreeTcp => "tree_tcp",
            Workload::TreeInproc => "tree_inproc",
            Workload::MixedSwap => "mixed_swap",
        }
    }
}

/// The instance every workload serves.
const VERTICES: usize = 50_000;
/// Bring-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Seeded source pools: `tree` sources, and matrix/`p2p`/`many` sources.
const TREE_POOL: usize = 64;
const MIX_POOL: usize = 96;
/// Fixed target lists of the matrix traffic: twice the 8-entry selection
/// LRU, so both hits and builds occur.
const TARGET_SETS: usize = 16;
const TARGET_SET_LEN: usize = 256;
/// Total length of the probes that measure, on each workload, the
/// end-to-end metrics its own traffic does not produce.
const PROBE: Duration = Duration::from_secs(6);
/// Untraced runs alternate the workload's traffic and its probes in this
/// many rounds, so that both sample the whole run and a stretch of
/// outside interference lands in few of their slices.
const ROUNDS: u32 = 4;
/// Republications timed by the publish probe of the tree workloads.
const REPUBLISHES: usize = 10;
/// Where runs write their artifact, weights file and span log.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {value} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric: name, value, unit, and the sample count behind it
/// (0 for values that are not sample statistics).
type Metric = (&'static str, f64, &'static str, usize);

struct Output {
    tally: Tally,
    /// A condition besides wrong answers that makes the run incorrect.
    incorrect: Option<String>,
    metrics: Vec<Metric>,
}

fn json_line(out: &Output) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit, _) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.wrong == 0 && out.incorrect.is_none(),
        out.tally.attempted,
        out.tally.failed(),
        fields.join(",")
    ))
}

/// Everything a run derives from its seed, plus the stack it serves on.
struct Ctx {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    graph: Graph,
    tree_pool: Vec<Vertex>,
    mix_pool: Vec<Vertex>,
    target_sets: Vec<Vec<Vertex>>,
    universe: Vec<Vertex>,
    dir: PathBuf,
    origin: Instant,
}

impl Ctx {
    fn mix_inputs<'a>(&'a self, pool: &'a [Vertex]) -> MixInputs<'a> {
        MixInputs {
            pool,
            target_sets: &self.target_sets,
            universe: &self.universe,
        }
    }

    fn len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The metric versions `mixed_swap` may publish in `windows`
    /// measured windows of `len` (writes start 0.3 s into a window, keep
    /// `SWAP_EVERY` apart and stop `SWAP_MARGIN` before its end).
    fn metrics(&self, windows: usize, len: Duration) -> Vec<MetricWeights> {
        let usable = len.as_secs_f64() - 0.3 - SWAP_MARGIN.as_secs_f64();
        let per_window = if usable > 0.0 {
            (usable / SWAP_EVERY.as_secs_f64()).floor() as usize + 1
        } else {
            0
        };
        (1..=(windows * per_window) as u64)
            .map(|v| {
                MetricWeights::perturbed(
                    &self.graph,
                    "bench",
                    v,
                    self.seed.wrapping_mul(0x9E37_79B9) ^ v,
                )
            })
            .collect()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: Args) -> Result<String, String> {
    let dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let inst = InstanceConfig::default_europe()
        .with_vertices(VERTICES)
        .build();
    let n = inst.network.graph.num_vertices();
    eprintln!(
        "{} seed {} on {}: {n} vertices, {} arcs, {} s{}",
        args.workload.name(),
        args.seed,
        inst.name,
        inst.network.graph.num_arcs(),
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let seed = args.seed;
    let target_sets: Vec<Vec<Vertex>> = (0..TARGET_SETS as u64)
        .map(|i| inst.sources(TARGET_SET_LEN, seed.wrapping_mul(31) ^ (0x100 + i)))
        .collect();
    let mut universe: Vec<Vertex> = target_sets.iter().flatten().copied().collect();
    universe.sort_unstable();
    universe.dedup();
    let ctx = Ctx {
        workload: args.workload,
        seed,
        seconds: args.seconds,
        trace: args.trace,
        tree_pool: inst.sources(TREE_POOL, seed ^ 0x7EE),
        mix_pool: inst.sources(MIX_POOL, seed ^ 0x313),
        target_sets,
        universe,
        graph: inst.network.graph,
        dir,
        origin: Instant::now(),
    };

    let (mut stack, setup) =
        setup::bring_up_median(&ctx.graph, ctx.workload, &ctx.dir, SETUP_ROUNDS)?;
    eprintln!(
        "setup_s {:.3} (median of {SETUP_ROUNDS}): contract {:.3} build {:.3} write {:.3} load {:.3} start {:.3} freeze {:.3}",
        setup.total, setup.contract, setup.build, setup.write, setup.load, setup.start, setup.freeze
    );
    let result = match ctx.workload {
        Workload::TreeTcp | Workload::TreeInproc => tree_workload(&ctx, &mut stack, &setup),
        Workload::MixedSwap => mixed_workload(&ctx, &mut stack, &setup),
    };
    stack.shutdown();
    let _ = std::fs::remove_file(ctx.dir.join("instance.phast"));
    let out = result?;
    for (name, value, unit, n) in &out.metrics {
        if *n > 0 {
            eprintln!("  {name:<34} {value:>14.4} {unit:<8} n={n}");
        } else {
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
    }
    eprintln!(
        "  attempted {} failed {} (errors {}, wrong {})",
        out.tally.attempted,
        out.tally.failed(),
        out.tally.errors,
        out.tally.wrong
    );
    if let Some(why) = &out.incorrect {
        eprintln!("  incorrect: {why}");
    }
    json_line(&out)
}

/// Reference tables are precomputed before any timing; their size is part
/// of the process's memory and is stated next to `peak_rss_mb`.
fn refs(what: &str, build: impl FnOnce() -> Oracle) -> Oracle {
    let t = Instant::now();
    let oracle = build();
    eprintln!(
        "reference tables ({what}): {:.1} MB in {:.2} s",
        oracle.bytes() as f64 / 1e6,
        t.elapsed().as_secs_f64()
    );
    oracle
}

/// Samples of one operation class gathered over one or more windows.
#[derive(Default)]
struct Series {
    samples: Samples,
    windows: Vec<(Instant, Instant)>,
}

impl Series {
    fn add(&mut self, samples: &Samples, window: &Window) {
        self.samples.extend(samples);
        self.windows.push(window.bounds());
    }

    fn merge(&mut self, other: Series) {
        self.samples.extend(&other.samples);
        self.windows.extend(other.windows);
    }

    fn of(samples: &Samples, window: &Window) -> Series {
        let mut s = Series::default();
        s.add(samples, window);
        s
    }

    /// Median-of-slices figures and the sample count behind them.
    fn steady(&self) -> (Steady, usize) {
        (self.samples.steady(&self.windows), self.samples.len())
    }
}

/// The end-to-end metrics every workload reports. Each workload's own
/// traffic produces some of them; probes interleaved with it produce the
/// rest (README.md, "Probes").
#[derive(Default)]
struct EndToEnd {
    tree_rps: Series,
    tree_lat: Series,
    matrix: Series,
    p2p: Series,
    many: Series,
    publish: Samples,
}

/// Trees report p99; matrix, `p2p` and `many` report p95, the highest
/// tail their few hundred samples per run support with at least ten
/// samples beyond it.
fn end_to_end(
    setup: &SetupTimes,
    e: &EndToEnd,
    tally: Tally,
    incorrect: Option<String>,
) -> Result<Output, String> {
    let peak = peak_rss_mb()?;
    let ok_ratio = 1.0 - ratio(tally.failed() as f64, tally.attempted as f64);
    let (rps, rn) = e.tree_rps.steady();
    let (tree, tn) = e.tree_lat.steady();
    let (matrix, mn) = e.matrix.steady();
    let (p2p, pn) = e.p2p.steady();
    let (many, yn) = e.many.steady();
    Ok(Output {
        tally,
        incorrect,
        metrics: vec![
            ("setup_s", setup.total, "s", SETUP_ROUNDS),
            ("tree_rps", rps.rate, "req/s", rn),
            ("tree_p50_ms", tree.p50, "ms", tn),
            ("tree_p99_ms", tree.p99, "ms", tn),
            ("matrix_rps", matrix.rate, "req/s", mn),
            ("matrix_p50_ms", matrix.p50, "ms", mn),
            ("matrix_p95_ms", matrix.p95, "ms", mn),
            ("p2p_p50_ms", p2p.p50, "ms", pn),
            ("p2p_p95_ms", p2p.p95, "ms", pn),
            ("many_p50_ms", many.p50, "ms", yn),
            ("many_p95_ms", many.p95, "ms", yn),
            ("publish_s", e.publish.p50() / 1e3, "s", e.publish.len()),
            ("peak_rss_mb", peak, "MB", 0),
            ("ok_ratio", ok_ratio, "ratio", tally.attempted as usize),
        ],
    })
}

/// Phase A is valid only if its generator kept its schedule over the
/// whole run: its sends ran at most `LATE_LIMIT_MS` late at the 99th
/// percentile, and it left at most `BACKLOG_LIMIT` of the sends due in its
/// windows unsent. A short stall of the whole machine delays a few sends
/// and is counted in their latency, which runs from the scheduled time.
fn check_open_loop(late: &Samples, backlog: u64) -> Result<(), String> {
    let p99 = late.p99();
    let due = late.len() as f64 + backlog as f64;
    if backlog as f64 > BACKLOG_LIMIT * due || p99 > LATE_LIMIT_MS {
        return Err(format!(
            "the open-loop generator fell behind its schedule (late p99 {p99:.3} ms, \
             {backlog} of {due} sends left unsent); the run is invalid and reports no latencies"
        ));
    }
    Ok(())
}

/// The primary traffic of a tree workload for one window.
struct TreePrimary {
    common: PhaseCommon,
    /// What becomes `tree_p50_ms` / `tree_p99_ms`.
    lat: Series,
    /// What becomes `tree_rps`.
    rps: Series,
    /// Submit-to-reply of in-process calls (empty on `tree_tcp`).
    call: Samples,
    backlog: u64,
    /// Served requests across the window from the wire `stats` op.
    wire_served: Option<f64>,
}

fn tree_primary(
    ctx: &Ctx,
    stack: &Stack,
    oracle: &Oracle,
    len: Duration,
    seed: u64,
    traced: bool,
) -> Result<TreePrimary, String> {
    match ctx.workload {
        Workload::TreeTcp => {
            let p =
                workloads::tree_tcp(stack, oracle, &ctx.tree_pool, seed, len, traced, ctx.origin)?;
            let lat = Series::of(&p.lat, &p.common.window);
            Ok(TreePrimary {
                rps: Series::of(&p.lat, &p.common.window),
                lat,
                wire_served: Some(p.wire.get("requests_served")),
                common: p.common,
                call: Samples::default(),
                backlog: 0,
            })
        }
        _ => {
            let mut log = SpanLog::new(traced, 1, ctx.origin);
            let half = len / 2;
            let a = workloads::open_loop(
                stack,
                oracle,
                &ctx.tree_pool,
                seed,
                OPEN_LOOP_RATE,
                half,
                &mut log,
            );
            let b = workloads::saturate(stack, oracle, &ctx.tree_pool, seed, half, &mut log);
            let mut common = a.common;
            common.tally.add(&b.common.tally);
            // Counters cover both phases.
            common.svc.add(&b.common.svc);
            common.spans = log.into_spans();
            let mut call = a.call;
            call.extend(&b.lat);
            Ok(TreePrimary {
                rps: Series::of(&b.lat, &b.common.window),
                lat: Series::of(&a.lat, &common.window),
                call,
                backlog: a.backlog,
                wire_served: None,
                common,
            })
        }
    }
}

/// The seed of round `r`: every round draws fresh sources.
fn round_seed(seed: u64, r: u32) -> u64 {
    seed ^ (u64::from(r) << 56)
}

fn tree_workload(ctx: &Ctx, stack: &mut Stack, setup: &SetupTimes) -> Result<Output, String> {
    let oracle = refs("full trees, 1 metric", || {
        Oracle::full_trees(&[&ctx.graph], &ctx.tree_pool)
    });
    let inputs = ctx.mix_inputs(&ctx.tree_pool);
    if !ctx.trace {
        let mut e = EndToEnd::default();
        let mut tally = Tally::default();
        let (mut late, mut backlog) = (Samples::default(), 0);
        for r in 0..ROUNDS {
            let seed = round_seed(ctx.seed, r);
            let p = tree_primary(ctx, stack, &oracle, ctx.len() / ROUNDS, seed, false)?;
            tally.add(&p.common.tally);
            late.extend(&p.common.late);
            backlog += p.backlog;
            e.tree_lat.merge(p.lat);
            e.tree_rps.merge(p.rps);
            let mix = workloads::mixed(
                stack,
                &oracle,
                &inputs,
                None,
                seed,
                PROBE / ROUNDS,
                false,
                ctx.origin,
            )?;
            tally.add(&mix.common.tally);
            e.matrix.add(&mix.matrix, &mix.common.window);
            e.p2p.add(&mix.p2p, &mix.common.window);
            e.many.add(&mix.many, &mix.common.window);
        }
        if ctx.workload == Workload::TreeInproc {
            check_open_loop(&late, backlog)?;
        }
        let (publish, t) = workloads::republish(stack, &oracle, &ctx.tree_pool, REPUBLISHES)?;
        tally.add(&t);
        e.publish = publish;
        return end_to_end(setup, &e, tally, None);
    }
    let half = ctx.len() / 2;
    let base = tree_primary(ctx, stack, &oracle, half, ctx.seed, false)?;
    let traced = tree_primary(ctx, stack, &oracle, half, round_seed(ctx.seed, 1), true)?;
    if ctx.workload == Workload::TreeInproc {
        for p in [&base, &traced] {
            check_open_loop(&p.common.late, p.backlog)?;
        }
    }
    let overhead = base.rps.steady().0.rate / traced.rps.steady().0.rate - 1.0;
    let call = if ctx.workload == Workload::TreeTcp {
        None
    } else {
        Some(&traced.call)
    };
    let mut tally = base.common.tally;
    tally.add(&traced.common.tally);
    per_layer(
        ctx,
        stack,
        setup,
        &oracle,
        (&oracle, &ctx.tree_pool),
        &inputs,
        Traced {
            phase: traced.common,
            call,
            backlog: traced.backlog,
            overhead,
            wire_served: traced.wire_served,
            tally,
            next_metric: MetricWeights::perturbed(&ctx.graph, "bench", 1, ctx.seed),
        },
    )
}

fn mixed_workload(ctx: &Ctx, stack: &mut Stack, setup: &SetupTimes) -> Result<Output, String> {
    let windows = if ctx.trace { 2 } else { ROUNDS };
    let len = ctx.len() / windows;
    let metrics = ctx.metrics(windows as usize, len);
    let graphs: Vec<Graph> = metrics.iter().map(|m| reweight(&ctx.graph, m)).collect();
    let graph_refs: Vec<&Graph> = std::iter::once(&ctx.graph).chain(&graphs).collect();
    let oracle = refs(
        &format!(
            "{} metrics at {} targets",
            graph_refs.len(),
            ctx.universe.len()
        ),
        || Oracle::restricted(&graph_refs, &ctx.mix_pool, &ctx.universe),
    );
    let inputs = ctx.mix_inputs(&ctx.mix_pool);
    let plan = |written_before| SwapPlan {
        metrics: &metrics,
        path: &stack.metric_path,
        written_before,
    };
    // Trees are checked on the metric serving once every written update
    // has published (`workloads::mixed` returns only then).
    let tree_oracle = || -> Result<Oracle, String> {
        let epoch = stack.service.epoch_id();
        let graph = usize::try_from(epoch - 1)
            .ok()
            .and_then(|v| graph_refs.get(v))
            .ok_or_else(|| format!("epoch {epoch} serves no metric this run published"))?;
        Ok(refs(&format!("full trees, epoch {epoch}"), || {
            Oracle::full_trees(&[graph], &ctx.tree_pool)
        }))
    };
    let mut tally = Tally::default();
    if !ctx.trace {
        let mut e = EndToEnd::default();
        let (mut written, mut canary) = (0, 0.0);
        for r in 0..ROUNDS {
            let seed = round_seed(ctx.seed, r);
            let m = workloads::mixed(
                stack,
                &oracle,
                &inputs,
                Some(plan(written)),
                seed,
                len,
                false,
                ctx.origin,
            )?;
            written = m.written;
            tally.add(&m.common.tally);
            canary += m.common.svc.get("canary_failures");
            e.matrix.add(&m.matrix, &m.common.window);
            e.p2p.add(&m.p2p, &m.common.window);
            e.many.add(&m.many, &m.common.window);
            e.publish.extend(&m.publish);
            let trees = tree_oracle()?;
            let mut log = SpanLog::new(false, 1, ctx.origin);
            let probe = workloads::saturate(
                stack,
                &trees,
                &ctx.tree_pool,
                seed,
                PROBE / ROUNDS,
                &mut log,
            );
            tally.add(&probe.common.tally);
            e.tree_lat.add(&probe.lat, &probe.common.window);
            e.tree_rps.add(&probe.lat, &probe.common.window);
        }
        let incorrect = (canary > 0.0).then(|| format!("{canary} canary failures"));
        return end_to_end(setup, &e, tally, incorrect);
    }
    let first = workloads::mixed(
        stack,
        &oracle,
        &inputs,
        Some(plan(0)),
        ctx.seed,
        len,
        false,
        ctx.origin,
    )?;
    let second = workloads::mixed(
        stack,
        &oracle,
        &inputs,
        Some(plan(first.written)),
        round_seed(ctx.seed, 1),
        len,
        true,
        ctx.origin,
    )?;
    tally.add(&first.common.tally);
    tally.add(&second.common.tally);
    let rate = |m: &workloads::Mix| Series::of(&m.matrix, &m.common.window).steady().0.rate;
    let overhead = rate(&first) / rate(&second) - 1.0;
    let next = metrics.get(second.written).cloned().unwrap_or_else(|| {
        MetricWeights::perturbed(&ctx.graph, "bench", second.written as u64 + 1, ctx.seed)
    });
    let trees = tree_oracle()?;
    per_layer(
        ctx,
        stack,
        setup,
        &oracle,
        (&trees, &ctx.tree_pool),
        &inputs,
        Traced {
            phase: second.common,
            call: Some(&second.call),
            backlog: 0,
            overhead,
            wire_served: None,
            tally,
            next_metric: next,
        },
    )
}

/// The traced window of a run and what the untraced one contributes.
struct Traced<'a> {
    phase: PhaseCommon,
    /// In-process submit-to-reply samples of the traced window; `None`
    /// where the workload makes no in-process calls (then the attribution
    /// phase's calls stand in).
    call: Option<&'a Samples>,
    backlog: u64,
    overhead: f64,
    wire_served: Option<f64>,
    tally: Tally,
    next_metric: MetricWeights,
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    ctx: &Ctx,
    stack: &mut Stack,
    setup: &SetupTimes,
    oracle: &Oracle,
    trees: (&Oracle, &[Vertex]),
    inputs: &MixInputs<'_>,
    t: Traced<'_>,
) -> Result<Output, String> {
    let d = &t.phase.svc;
    let executions = d.get("batches")
        + d.get("scalar_fallbacks")
        + d.get("p2p_fallbacks")
        + d.get("matrix_requests");
    let sweeps = d.get("batches") + d.get("scalar_fallbacks") + d.get("matrix_requests");
    let occupancy = ratio(d.get("batched_requests"), d.get("batches"));
    let lanes = ratio(
        d.get("batched_requests") + d.get("padded_lanes") + d.get("scalar_fallbacks"),
        d.get("batches") + d.get("scalar_fallbacks"),
    )
    .max(1.0);
    let upward_ms = ratio(d.ms("upward_time"), sweeps);
    let sweep_ms = ratio(d.ms("sweep_time"), sweeps);
    let phast = stack.service.phast();
    let bytes = sweep_bytes(&phast, lanes);
    let width = (occupancy.round() as usize).clamp(1, stack.service.config().max_k);

    stack.ensure_wire()?;
    let attribution: Attribution = layers::attribute(stack, trees.0, trees.1, ctx.seed, PROBE)?;
    let cal: Calibration = layers::calibrate(
        stack,
        &ctx.graph,
        (oracle, inputs),
        trees,
        &t.next_metric,
        width,
        bytes,
    )?;

    let spans: &[Span] = &t.phase.spans;
    let path = ctx
        .dir
        .join(format!("trace-{}-{}.jsonl", ctx.workload.name(), ctx.seed));
    trace::write_spans(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{} spans written to {}; self time by span:",
        spans.len(),
        path.display()
    );
    for (name, (count, total, own)) in trace::self_times(spans) {
        eprintln!("  {name:<34} n={count:<7} total {total:>10.1} ms  self {own:>10.1} ms");
    }

    let mut tally = t.tally;
    tally.add(&attribution.tally);
    tally.add(&cal.tally);
    let call = t.call.unwrap_or(&attribution.call);
    let call_ms = call.mean();
    let runner_batch_ms = cal.runner_ms_per_tree * width as f64;
    let freeze_s = cal.freeze_s.unwrap_or(setup.freeze);
    let reply_bytes = attribution.reply_bytes.iter().sum::<usize>() as f64
        / attribution.reply_bytes.len().max(1) as f64;
    let served = t.wire_served.unwrap_or_else(|| d.get("requests_served"));
    let ref_bytes = oracle.bytes()
        + if std::ptr::eq(oracle, trees.0) {
            0
        } else {
            trees.0.bytes()
        };
    let a = &attribution;
    let late_n = t.phase.late.len();
    let metrics: Vec<Metric> = vec![
        ("ch.contract_s", setup.contract, "s", SETUP_ROUNDS),
        ("core.build_s", setup.build, "s", SETUP_ROUNDS),
        ("store.write_s", setup.write, "s", SETUP_ROUNDS),
        ("store.load_s", setup.load, "s", SETUP_ROUNDS),
        ("store.artifact_mb", setup.artifact_bytes / 1e6, "MB", 0),
        ("serve.start_s", setup.start, "s", SETUP_ROUNDS),
        ("metrics.freeze_s", freeze_s, "s", 1),
        (
            "client.roundtrip_ms",
            a.roundtrip.mean(),
            "ms",
            a.roundtrip.len(),
        ),
        (
            "client.direct_roundtrip_ms",
            a.direct.mean(),
            "ms",
            a.direct.len(),
        ),
        ("router.relay_ms", a.relay_ms(), "ms", 0),
        ("protocol.decode_ms", a.decode.mean(), "ms", a.decode.len()),
        ("protocol.encode_ms", a.encode.mean(), "ms", a.encode.len()),
        (
            "server.handle_line_ms",
            a.handle_line.mean(),
            "ms",
            a.handle_line.len(),
        ),
        ("server.socket_ms", a.socket_ms(), "ms", 0),
        (
            "protocol.reply_bytes",
            reply_bytes,
            "bytes",
            a.reply_bytes.len(),
        ),
        (
            "router.forwarded",
            a.router.get("router_forwarded"),
            "count",
            0,
        ),
        ("scheduler.call_ms", call_ms, "ms", call.len()),
        (
            "scheduler.queue_wait_ms",
            call_ms - runner_batch_ms,
            "ms",
            0,
        ),
        (
            "scheduler.runner_ms_per_tree",
            cal.runner_ms_per_tree,
            "ms",
            20,
        ),
        (
            "scheduler.batch_occupancy",
            occupancy,
            "requests",
            d.get("batches") as usize,
        ),
        (
            "scheduler.multi_batch_ratio",
            ratio(d.get("multi_batches"), executions),
            "ratio",
            executions as usize,
        ),
        ("scheduler.served", served, "count", 0),
        ("scheduler.shed", d.get("shed_overload"), "count", 0),
        (
            "scheduler.rejected",
            d.get("rejected_queue_full") + d.get("rejected_invalid"),
            "count",
            0,
        ),
        ("core.upward_ms", upward_ms, "ms", sweeps as usize),
        ("core.sweep_ms", sweep_ms, "ms", sweeps as usize),
        ("core.sweep_bytes", bytes, "bytes", 0),
        ("core.scan_bytes", cal.scan_bytes as f64, "bytes", 0),
        ("core.sweep_gbps", ratio(bytes, sweep_ms * 1e6), "GB/s", 0),
        (
            "core.scan_gbps",
            ratio(cal.scan_bytes as f64, cal.scan_ms * 1e6),
            "GB/s",
            9,
        ),
        ("core.scan_ratio", ratio(sweep_ms, cal.scan_ms), "ratio", 0),
        (
            "core.rphast_select_ms",
            cal.rphast_select_ms,
            "ms",
            TARGET_SETS,
        ),
        (
            "core.rphast_sweep_ms",
            cal.rphast_sweep_ms,
            "ms",
            TARGET_SETS,
        ),
        (
            "scheduler.selection_hit_ratio",
            ratio(
                d.get("selection_cache_hits"),
                d.get("selection_cache_hits") + d.get("selection_builds"),
            ),
            "ratio",
            0,
        ),
        (
            "scheduler.selection_builds",
            d.get("selection_builds"),
            "count",
            0,
        ),
        ("ch.p2p_query_us", cal.p2p_query_us, "us", 2000),
        ("metrics.customize_s", cal.customize_s, "s", 1),
        (
            "scheduler.swap_latency_us",
            ratio(d.get("swap_latency_us"), d.get("metric_swaps")),
            "us",
            d.get("metric_swaps") as usize,
        ),
        (
            "scheduler.queries_on_stale_metric",
            d.get("queries_on_stale_metric"),
            "count",
            0,
        ),
        (
            "watch.canary_failures",
            d.get("canary_failures"),
            "count",
            0,
        ),
        ("gen.late_p99_ms", t.phase.late.p99(), "ms", late_n),
        ("gen.backlog", t.backlog as f64, "count", 0),
        ("trace.overhead_ratio", t.overhead, "ratio", 0),
        (
            "trace.unattributed_ratio",
            a.unattributed_ratio(),
            "ratio",
            0,
        ),
        ("trace.spans", spans.len() as f64, "count", 0),
        (
            "failed_ratio",
            ratio(tally.failed() as f64, tally.attempted as f64),
            "ratio",
            tally.attempted as usize,
        ),
        ("bench.ref_tables_mb", ref_bytes as f64 / 1e6, "MB", 0),
    ];
    let canary = d.get("canary_failures");
    Ok(Output {
        tally,
        incorrect: (canary > 0.0).then(|| format!("{canary} canary failures")),
        metrics,
    })
}
