//! Bringing the serving stack up from a graph in memory, timed per layer.

use crate::Workload;
use phast_ch::{contract_graph, ContractionConfig};
use phast_core::PhastBuilder;
use phast_graph::Graph;
use phast_metrics::MetricCustomizer;
use phast_router::{Router, RouterConfig};
use phast_serve::{MetricWatcher, ServeConfig, Server, Service};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the metric watcher polls its weights file. A deployment
/// setting; short enough that the poll wait is a small share of
/// `publish_s`, which is dominated by customization.
pub const WATCH_POLL: Duration = Duration::from_millis(100);

/// One running stack. `server`/`router` exist on `tree_tcp`,
/// `customizer`/`watcher` on `mixed_swap`.
pub struct Stack {
    pub service: Arc<Service>,
    pub server: Option<Server>,
    pub router: Option<Router>,
    pub customizer: Option<Arc<MetricCustomizer>>,
    pub watcher: Option<MetricWatcher>,
    /// The weights file the watcher polls.
    pub metric_path: PathBuf,
}

impl Stack {
    /// Stops every thread the stack started and waits for them.
    pub fn shutdown(self) {
        if let Some(mut w) = self.watcher {
            w.shutdown();
        }
        if let Some(r) = self.router {
            r.shutdown();
        }
        match self.server {
            Some(s) => s.shutdown(),
            None => self.service.shutdown(),
        }
    }

    /// Puts a server and router in front of the service if there are none
    /// yet (traced runs time the wire layers on every workload).
    pub fn ensure_wire(&mut self) -> Result<(), String> {
        if self.server.is_none() {
            let server = Server::spawn(Arc::clone(&self.service), "127.0.0.1:0")
                .map_err(|e| format!("binding the server: {e}"))?;
            self.server = Some(server);
        }
        if self.router.is_none() {
            let backend = self.server.as_ref().expect("set above").local_addr();
            let router = Router::spawn(
                RouterConfig {
                    backends: vec![backend],
                    ..RouterConfig::default()
                },
                "127.0.0.1:0",
            )
            .map_err(|e| format!("binding the router: {e}"))?;
            self.router = Some(router);
        }
        Ok(())
    }
}

/// Seconds spent in each step of one bring-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub contract: f64,
    pub build: f64,
    pub write: f64,
    pub load: f64,
    pub start: f64,
    pub freeze: f64,
    pub artifact_bytes: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Graph in memory to serving: contraction, instance build, artifact
/// write, mmap load, service start, and the workload's front end
/// (server + router) or write path (customizer + watcher).
pub fn bring_up(
    graph: &Graph,
    workload: Workload,
    dir: &Path,
) -> Result<(Stack, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let all = Instant::now();

    let step = Instant::now();
    let hierarchy = contract_graph(graph, &ContractionConfig::default());
    t.contract = secs(step);

    let step = Instant::now();
    let phast = PhastBuilder::new().build_with_hierarchy(graph, &hierarchy);
    t.build = secs(step);

    let artifact = dir.join("instance.phast");
    let step = Instant::now();
    phast_store::write_instance(&artifact, &phast, Some(&hierarchy))
        .map_err(|e| format!("writing {}: {e}", artifact.display()))?;
    t.write = secs(step);
    t.artifact_bytes = std::fs::metadata(&artifact)
        .map_err(|e| format!("sizing {}: {e}", artifact.display()))?
        .len() as f64;
    drop((phast, hierarchy));

    let step = Instant::now();
    let loaded = phast_store::load_instance_mmap(&artifact)
        .map_err(|e| format!("loading {}: {e}", artifact.display()))?;
    t.load = secs(step);
    let hierarchy = Arc::new(
        loaded
            .hierarchy
            .ok_or("the artifact was written with its hierarchy but loaded without it")?,
    );

    let step = Instant::now();
    let service = Service::new(
        Arc::new(loaded.phast),
        Some(Arc::clone(&hierarchy)),
        ServeConfig::default(),
    );
    let mut stack = Stack {
        service,
        server: None,
        router: None,
        customizer: None,
        watcher: None,
        metric_path: dir.join("weights.json"),
    };
    if workload == Workload::TreeTcp {
        stack.ensure_wire()?;
    }
    t.start = secs(step);

    if workload == Workload::MixedSwap {
        let step = Instant::now();
        let customizer = Arc::new(
            MetricCustomizer::new(graph.clone(), &hierarchy)
                .map_err(|e| format!("freezing the topology: {e}"))?,
        );
        t.freeze = secs(step);
        match std::fs::remove_file(&stack.metric_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("clearing {}: {e}", stack.metric_path.display())),
        }
        stack.watcher = Some(MetricWatcher::spawn(
            Arc::clone(&stack.service),
            Arc::clone(&customizer),
            stack.metric_path.clone(),
            WATCH_POLL,
        ));
        stack.customizer = Some(customizer);
    }
    t.total = secs(all);
    Ok((stack, t))
}

/// Brings the stack up `rounds` times, keeps the last one running, and
/// returns the per-step medians.
pub fn bring_up_median(
    graph: &Graph,
    workload: Workload,
    dir: &Path,
    rounds: usize,
) -> Result<(Stack, SetupTimes), String> {
    let mut all = Vec::with_capacity(rounds);
    let mut stack = None;
    for _ in 0..rounds {
        if let Some(s) = stack.take() {
            Stack::shutdown(s);
        }
        let (s, t) = bring_up(graph, workload, dir)?;
        stack = Some(s);
        all.push(t);
    }
    let med = |f: fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = all.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let t = SetupTimes {
        total: med(|t| t.total),
        contract: med(|t| t.contract),
        build: med(|t| t.build),
        write: med(|t| t.write),
        load: med(|t| t.load),
        start: med(|t| t.start),
        freeze: med(|t| t.freeze),
        artifact_bytes: med(|t| t.artifact_bytes),
    };
    Ok((stack.expect("at least one round"), t))
}
