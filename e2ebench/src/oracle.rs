//! The Dijkstra oracle: reference distances for a seeded source pool under
//! every metric a run may publish, and the checker every reply goes
//! through.

use phast_core::HeteroAnswer;
use phast_dijkstra::Dijkstra;
use phast_graph::{Csr, Graph, Vertex, Weight};
use phast_metrics::MetricWeights;
use phast_serve::protocol::{decode_reply, Reply};
use phast_serve::ServeError;
use std::collections::HashMap;

/// `graph` with `metric`'s weights in canonical arc order: the graph the
/// reference Dijkstra runs on for that metric.
pub fn reweight(graph: &Graph, metric: &MetricWeights) -> Graph {
    let arcs = graph
        .forward()
        .arcs()
        .iter()
        .zip(&metric.weights)
        .map(|(a, &w)| phast_graph::Arc::new(a.head, w))
        .collect();
    Graph::from_csr(Csr::from_raw(graph.forward().first().to_vec(), arcs))
}

/// Reference distances: per metric, per pool source, either the full tree
/// or the distances to a fixed column set.
pub struct Oracle {
    /// `tables[metric][slot]`.
    tables: Vec<Vec<Vec<Weight>>>,
    slot_of: HashMap<Vertex, usize>,
    /// Column of each target when the tables are restricted; `None` for
    /// full trees.
    column_of: Option<HashMap<Vertex, usize>>,
}

impl Oracle {
    /// Full Dijkstra trees from every pool source on every graph.
    pub fn full_trees(graphs: &[&Graph], sources: &[Vertex]) -> Oracle {
        Oracle::build(graphs, sources, None)
    }

    /// Dijkstra from every pool source on every graph, kept only at
    /// `columns` (every target the run will ask about).
    pub fn restricted(graphs: &[&Graph], sources: &[Vertex], columns: &[Vertex]) -> Oracle {
        Oracle::build(graphs, sources, Some(columns))
    }

    fn build(graphs: &[&Graph], sources: &[Vertex], columns: Option<&[Vertex]>) -> Oracle {
        // Two threads: the machine the benchmark targets has two cores.
        let jobs: Vec<(usize, usize)> = (0..graphs.len())
            .flat_map(|m| (0..sources.len()).map(move |s| (m, s)))
            .collect();
        let mut rows: Vec<Vec<Weight>> = vec![Vec::new(); jobs.len()];
        let half = jobs.len().div_ceil(2);
        std::thread::scope(|scope| {
            for (job_chunk, row_chunk) in jobs.chunks(half.max(1)).zip(rows.chunks_mut(half.max(1)))
            {
                scope.spawn(move || {
                    let mut solvers: HashMap<usize, Dijkstra> = HashMap::new();
                    for (&(m, s), row) in job_chunk.iter().zip(row_chunk) {
                        let solver = solvers
                            .entry(m)
                            .or_insert_with(|| Dijkstra::new(graphs[m].forward()));
                        solver.run(sources[s]);
                        let dist = solver.dist();
                        *row = match columns {
                            Some(cols) => cols.iter().map(|&t| dist[t as usize]).collect(),
                            None => dist.to_vec(),
                        };
                    }
                });
            }
        });
        let mut rows = rows.into_iter();
        let tables = (0..graphs.len())
            .map(|_| rows.by_ref().take(sources.len()).collect())
            .collect();
        Oracle {
            tables,
            slot_of: sources.iter().enumerate().map(|(i, &s)| (s, i)).collect(),
            column_of: columns.map(|c| c.iter().enumerate().map(|(i, &t)| (t, i)).collect()),
        }
    }

    /// Bytes held by the reference tables.
    pub fn bytes(&self) -> usize {
        self.tables
            .iter()
            .flatten()
            .map(|row| row.len() * std::mem::size_of::<Weight>())
            .sum()
    }

    /// The reference row of `source` for a reply stamped with `epoch`.
    /// Epoch 1 is the base metric and epoch `e` the `e - 1`-th published
    /// one; an oracle holding a single metric answers every epoch (the
    /// run republishes that metric only).
    fn row(&self, epoch: u64, source: Vertex) -> Option<&[Weight]> {
        let metric = if self.tables.len() == 1 {
            0
        } else {
            usize::try_from(epoch.checked_sub(1)?).ok()?
        };
        let slot = *self.slot_of.get(&source)?;
        Some(&self.tables.get(metric)?[slot])
    }

    fn dist(&self, epoch: u64, source: Vertex, target: Vertex) -> Option<Weight> {
        let row = self.row(epoch, source)?;
        let col = match &self.column_of {
            Some(map) => *map.get(&target)?,
            None => target as usize,
        };
        row.get(col).copied()
    }

    /// Whether `answer` is the exact answer to the request, on the metric
    /// of `epoch`. A request the oracle has no reference for is wrong.
    pub fn check(&self, epoch: u64, request: &Request, answer: &HeteroAnswer) -> bool {
        let d = |s, t| self.dist(epoch, s, t);
        match (request, answer) {
            (Request::Tree(s), HeteroAnswer::Tree(got)) => match &self.column_of {
                None => self.row(epoch, *s) == Some(got.as_slice()),
                Some(_) => false,
            },
            (Request::Point(s, t), HeteroAnswer::Point(got)) => d(*s, *t) == Some(*got),
            (Request::Many(s, ts), HeteroAnswer::Many(got)) => {
                got.len() == ts.len() && ts.iter().zip(got).all(|(&t, &g)| d(*s, t) == Some(g))
            }
            (Request::Matrix(ss, ts), HeteroAnswer::Matrix(rows)) => {
                rows.len() == ss.len()
                    && ss.iter().zip(rows).all(|(&s, row)| {
                        row.len() == ts.len()
                            && ts.iter().zip(row).all(|(&t, &g)| d(s, t) == Some(g))
                    })
            }
            _ => false,
        }
    }
}

/// What a request asked for, as the oracle needs it.
#[derive(Clone, Debug)]
pub enum Request {
    Tree(Vertex),
    Point(Vertex, Vertex),
    Many(Vertex, Vec<Vertex>),
    Matrix(Vec<Vertex>, Vec<Vertex>),
}

/// Outcomes of one operation class: attempts, typed errors or refusals,
/// and answers that differ from their admission-epoch reference.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub wrong: u64,
}

impl Tally {
    /// Records one in-process reply: `(answer, admission epoch)` or error.
    pub fn record(
        &mut self,
        oracle: &Oracle,
        request: &Request,
        reply: &Result<(HeteroAnswer, u64), ServeError>,
    ) -> bool {
        self.attempted += 1;
        match reply {
            Ok((answer, epoch)) => {
                let ok = oracle.check(*epoch, request, answer);
                self.wrong += u64::from(!ok);
                ok
            }
            Err(_) => {
                self.errors += 1;
                false
            }
        }
    }

    /// Records one reply line read off the wire: decodes it, reads its
    /// epoch stamp, and checks it like [`Tally::record`].
    pub fn record_line(&mut self, oracle: &Oracle, request: &Request, line: &str) -> bool {
        self.record_decoded(oracle, request, decode_reply(line), epoch_stamp(line))
    }

    /// Records a decoded reply line; an answer without an epoch stamp, or
    /// a line that is not a routing answer at all, is wrong.
    pub fn record_decoded(
        &mut self,
        oracle: &Oracle,
        request: &Request,
        decoded: Result<Reply, ServeError>,
        epoch: Option<u64>,
    ) -> bool {
        let reply = match (decoded, epoch) {
            (Ok(Reply::Answer(a)), Some(epoch)) => Ok((a, epoch)),
            (Ok(Reply::Error(e)), _) => Err(e),
            _ => {
                self.attempted += 1;
                self.wrong += 1;
                return false;
            }
        };
        self.record(oracle, request, &reply)
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// The `epoch` stamp of a reply line. The encoder writes it as the last
/// field, so reading the tail avoids parsing a 50k-entry tree twice.
pub fn epoch_stamp(line: &str) -> Option<u64> {
    let at = line.rfind("\"epoch\":")?;
    let digits: String = line[at + 8..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_serve::protocol::encode_answer;

    fn tiny() -> Graph {
        RoadNetworkConfig::new(8, 8, 11, Metric::TravelTime)
            .build()
            .graph
    }

    #[test]
    fn a_corrupted_tree_reply_is_counted_as_failed() {
        let g = tiny();
        let sources = [3, 17];
        let oracle = Oracle::full_trees(&[&g], &sources);
        let mut dijkstra: Dijkstra = Dijkstra::new(g.forward());
        let good = HeteroAnswer::Tree(dijkstra.run(17).dist);
        let mut tally = Tally::default();

        let line = encode_answer(Some(1), &good, Some(1));
        assert!(tally.record_line(&oracle, &Request::Tree(17), &line));

        let HeteroAnswer::Tree(mut dist) = good else {
            unreachable!()
        };
        let v = dist
            .iter()
            .position(|&d| d > 0)
            .expect("a reachable vertex");
        dist[v] += 1;
        let corrupted = encode_answer(Some(2), &HeteroAnswer::Tree(dist), Some(1));
        assert!(!tally.record_line(&oracle, &Request::Tree(17), &corrupted));

        assert_eq!((tally.attempted, tally.wrong, tally.errors), (2, 1, 0));
        assert_eq!(tally.failed(), 1);
    }

    #[test]
    fn replies_are_checked_against_their_admission_epoch() {
        let g = tiny();
        let m = MetricWeights::perturbed(&g, "bench", 1, 9);
        let g2 = reweight(&g, &m);
        let cols: Vec<Vertex> = vec![0, 5, 40];
        let oracle = Oracle::restricted(&[&g, &g2], &[3], &cols);
        let mut dijkstra: Dijkstra = Dijkstra::new(g2.forward());
        let d2 = dijkstra.run(3).dist;
        let req = Request::Many(3, cols.clone());
        let answer = HeteroAnswer::Many(cols.iter().map(|&t| d2[t as usize]).collect());
        let mut tally = Tally::default();
        assert!(tally.record(&oracle, &req, &Ok((answer.clone(), 2))));
        // The same answer stamped with the base epoch is wrong there
        // (the perturbed metric moved these distances), and an epoch the
        // oracle never saw is wrong too.
        assert!(!tally.record(&oracle, &req, &Ok((answer.clone(), 1))));
        assert!(!tally.record(&oracle, &req, &Ok((answer, 3))));
        assert_eq!(tally.wrong, 2);
    }

    #[test]
    fn epoch_stamp_reads_the_tail_field() {
        assert_eq!(
            epoch_stamp(r#"{"id":1,"ok":true,"dist":[1,2],"epoch":12}"#),
            Some(12)
        );
        assert_eq!(epoch_stamp(r#"{"id":1,"ok":false}"#), None);
    }
}
