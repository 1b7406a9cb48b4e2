//! Weighted union-find decoding (cluster growth + peeling) on flat
//! index arenas.

use crate::evaluate::Decoder;
use crate::graph::{DecodingGraph, NO_NODE};
use crate::scratch::{
    DecoderScratch, ScratchCapacity, UfScratch, CLUSTER_BOUNDARY, DEFECT, IN_FOREST, NO_EDGE,
    PARITY, SATURATED, VISITED,
};
use std::ops::Range;
use std::sync::Arc;

/// A weighted union-find decoder (Delfosse–Nickerson).
///
/// Odd clusters of flagged detectors grow in unit steps along their
/// frontier edges (each edge's capacity is its integer-scaled
/// log-likelihood weight); clusters merge when an edge saturates, and
/// stop growing once their defect parity is even or they touch the
/// boundary. A peeling pass over each cluster's spanning forest then
/// produces the correction, whose edge observable masks XOR into the
/// logical prediction.
///
/// The whole decode runs over flat u32 arenas: CSR adjacency from the
/// graph, packed 8/16-byte DSU records and single-byte node marks from
/// the scratch — no per-node heap structures, which is what keeps
/// d ≥ 11 decodes inside the cache instead of chasing pointers.
///
/// Union-find trades a little accuracy against minimum-weight perfect
/// matching for near-linear decoding time, which is what makes the
/// paper-scale parameter sweeps (hundreds of configurations) tractable
/// on a workstation; the test suite cross-validates it against the
/// exact matcher on small codes.
#[derive(Debug, Clone)]
pub struct UfDecoder {
    graph: Arc<DecodingGraph>,
    /// Integer edge capacities (scaled weights).
    capacity: Vec<u32>,
}

/// Scale factor from log-likelihood weight to integer growth units.
const WEIGHT_SCALE: f64 = 4.0;

/// Quantizes a log-likelihood weight into integer growth units.
fn quantize_capacity(weight: f64) -> u32 {
    ((weight * WEIGHT_SCALE).round() as u32).max(1)
}

impl UfDecoder {
    /// Wraps a decoding graph.
    pub fn new(graph: DecodingGraph) -> UfDecoder {
        UfDecoder::from_shared(Arc::new(graph))
    }

    /// Wraps an already-shared decoding graph without deep-copying it —
    /// how [`MwpmDecoder`](crate::MwpmDecoder) shares one graph with
    /// its union-find fallback.
    pub fn from_shared(graph: Arc<DecodingGraph>) -> UfDecoder {
        // analyzer: allow(alloc) -- constructor: the quantized edge
        // capacities are computed once per graph, not per decode.
        let capacity = graph
            .edges()
            .iter()
            .map(|e| quantize_capacity(e.weight))
            .collect();
        // analyzer: end-allow(alloc)
        UfDecoder { graph, capacity }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }
}

/// The union-find decode core over an explicit `(graph, capacity)`
/// pair, restricted to the detector window `[window.start,
/// window.end)`: cluster growth plus peeling, writing the observable
/// mask into `correction`. `syndrome` holds window detectors (global
/// ids, ascending). An edge whose far endpoint lies outside the window
/// is an artificial-boundary terminal (a cut edge). [`UfDecoder`]
/// decodes batch syndromes through the full window `0..num_detectors`;
/// windowed fusion passes the active round window.
///
/// Only the window's nodes and its incident edges are reset or walked,
/// so a window decode costs O(window), never O(graph). The result is
/// bit-identical to decoding a copy of the window's sub-graph: node ids
/// differ by a constant shift, so every order by node id is preserved;
/// internal edges keep their relative order, so unions (the only
/// order-sensitive growth step) happen in the same sequence; and the
/// peel visits boundary-anchored edges by (window endpoint, edge
/// index), the order a copied sub-graph lists them in.
pub(crate) fn uf_decode(
    graph: &DecodingGraph,
    capacity: &[u32],
    scratch: &mut DecoderScratch,
    window: &Range<u32>,
    syndrome: &[u32],
    correction: &mut u32,
) {
    *correction = 0;
    if syndrome.is_empty() {
        return;
    }
    let rec = graph.records();
    debug_assert_eq!(capacity.len(), rec.len());
    debug_assert!(syndrome.iter().all(|d| window.contains(d)));
    let s = &mut scratch.uf;
    s.reset(graph, window);
    for &f in syndrome {
        s.mark[f as usize] |= DEFECT;
        s.root[f as usize].flags |= PARITY;
    }
    // The root/frontier lists are borrowed out of the scratch for
    // the growth loop (which needs `&mut s` for find/union) and
    // handed back after, so their capacity is retained.
    let mut roots = std::mem::take(&mut s.roots);
    let mut frontier = std::mem::take(&mut s.frontier);
    loop {
        // Roots of still-odd, boundary-free clusters.
        roots.clear();
        for &x in syndrome {
            let r = s.find(x);
            if s.root[r as usize].flags & (PARITY | CLUSTER_BOUNDARY) == PARITY {
                roots.push(r);
            }
        }
        roots.sort_unstable();
        roots.dedup();
        if roots.is_empty() {
            break;
        }
        for &root in &roots {
            // A merge earlier in this pass may have neutralized it.
            let r = s.find(root);
            if r != root || s.root[r as usize].flags & (PARITY | CLUSTER_BOUNDARY) != PARITY {
                continue;
            }
            // Grow every unsaturated edge on the cluster frontier
            // (members are walked through the intrusive list).
            frontier.clear();
            let mut node = s.root[root as usize].head;
            while node != NO_NODE {
                for a in graph.neighbors(node) {
                    if s.grown[a.edge as usize] & SATURATED == 0 {
                        frontier.push(a.edge);
                    }
                }
                node = s.node[node as usize].next;
            }
            frontier.sort_unstable();
            frontier.dedup();
            for &ei in &frontier {
                s.grown[ei as usize] += 1;
                if s.grown[ei as usize] >= capacity[ei as usize] {
                    s.grown[ei as usize] |= SATURATED;
                    let e = &rec[ei as usize];
                    if !window.contains(&e.v) {
                        let r = s.find(e.u);
                        s.root[r as usize].flags |= CLUSTER_BOUNDARY;
                    } else if !window.contains(&e.u) {
                        let r = s.find(e.v);
                        s.root[r as usize].flags |= CLUSTER_BOUNDARY;
                    } else {
                        s.union(e.u, e.v);
                    }
                }
            }
        }
    }
    s.roots = roots;
    s.frontier = frontier;
    // Peeling: build spanning forests over saturated edges and peel
    // leaves, flipping defects toward the root (boundary-anchored
    // when available).
    *correction = peel(graph, s, window);
}

impl Decoder for UfDecoder {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        let window = 0..self.graph.num_detectors();
        uf_decode(
            &self.graph,
            &self.capacity,
            scratch,
            &window,
            syndrome,
            correction,
        );
    }

    fn decode_window_into(
        &self,
        scratch: &mut DecoderScratch,
        window: Range<u32>,
        syndrome: &[u32],
        correction: &mut u32,
    ) -> Option<u32> {
        uf_decode(
            &self.graph,
            &self.capacity,
            scratch,
            &window,
            syndrome,
            correction,
        );
        Some(self.graph.cut_edges(window))
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        ScratchCapacity::for_graph(&self.graph, 0)
    }
}

/// Breadth-first spanning tree of `root`'s component in the saturated
/// subgraph of the window, appended to `s.order` / `s.parent_edge`.
/// The order array doubles as the FIFO queue (new nodes are pushed at
/// the tail and scanned by index), so BFS needs no separate queue
/// arena.
fn bfs(graph: &DecodingGraph, s: &mut UfScratch, window: &Range<u32>, root: u32) {
    s.mark[root as usize] |= VISITED;
    let mut scan = s.order.len();
    s.order.push(root);
    while scan < s.order.len() {
        let u = s.order[scan];
        scan += 1;
        for a in graph.neighbors(u) {
            if s.grown[a.edge as usize] & SATURATED == 0 || !window.contains(&a.to) {
                continue;
            }
            if s.mark[a.to as usize] & VISITED == 0 {
                s.mark[a.to as usize] |= VISITED;
                s.parent_edge[a.to as usize] = a.edge;
                s.order.push(a.to);
            }
        }
    }
}

/// Peels the saturated subgraph of the window (in `s.grown` /
/// `s.mark`), returning the observable mask of the correction.
fn peel(graph: &DecodingGraph, s: &mut UfScratch, window: &Range<u32>) -> u32 {
    let rec = graph.records();
    let mut mask = 0u32;
    // VISITED and IN_FOREST bits are clear here: reset zeroed the
    // marks and only the scans below set them.
    // Boundary-anchored spanning trees first, by (window endpoint,
    // edge index): each root's BFS claims its whole component before
    // other roots are considered, so boundary-reachable defects drain
    // to the boundary. The same scan flags every node with a saturated
    // edge for the component scan below.
    for node in window.start..window.end {
        for a in graph.neighbors(node) {
            if s.grown[a.edge as usize] & SATURATED == 0 {
                continue;
            }
            s.mark[node as usize] |= IN_FOREST;
            if !window.contains(&a.to) && s.mark[node as usize] & VISITED == 0 {
                s.root_drains.push((node, a.edge));
                bfs(graph, s, window, node);
            }
        }
    }
    // Remaining components of the saturated subgraph.
    for node in window.start..window.end {
        if s.mark[node as usize] & VISITED == 0 && s.mark[node as usize] & (IN_FOREST | DEFECT) != 0
        {
            s.root_drains.push((node, NO_EDGE));
            bfs(graph, s, window, node);
        }
    }
    // Peel in reverse BFS order: each non-root node pushes its defect
    // to its parent through the tree edge.
    for i in (0..s.order.len()).rev() {
        let node = s.order[i];
        let ei = s.parent_edge[node as usize];
        if ei == NO_EDGE {
            continue; // root
        }
        if s.mark[node as usize] & DEFECT != 0 {
            let e = &rec[ei as usize];
            mask ^= e.observables;
            s.mark[node as usize] &= !DEFECT;
            let parent = if e.u == node {
                debug_assert!(e.v != NO_NODE, "tree edges are internal");
                e.v
            } else {
                e.u
            };
            s.mark[parent as usize] ^= DEFECT;
        }
    }
    // Residual defects at roots drain through their boundary edge.
    for i in 0..s.root_drains.len() {
        let (root, bedge) = s.root_drains[i];
        if s.mark[root as usize] & DEFECT != 0 && bedge != NO_EDGE {
            mask ^= rec[bedge as usize].observables;
            s.mark[root as usize] &= !DEFECT;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
    use ftqc_sim::DetectorErrorModel;

    /// Distance-5 repetition-code-like chain with observable on the
    /// first boundary edge.
    fn chain_graph(n_checks: u32, p: f64) -> DecodingGraph {
        let n_data = n_checks + 1;
        let mut c = Circuit::new(n_data + n_checks);
        c.push(Op::ResetZ((0..n_data + n_checks).collect()));
        c.push(Op::PauliChannel {
            qubits: (0..n_data).collect(),
            px: p,
            py: 0.0,
            pz: 0.0,
        });
        for k in 0..n_checks {
            c.push(Op::cx([(k, n_data + k)]));
            c.push(Op::cx([(k + 1, n_data + k)]));
        }
        c.push(Op::measure_z(
            (n_data..n_data + n_checks).collect::<Vec<_>>(),
            0.0,
        ));
        for k in 0..n_checks {
            c.push(Op::detector([MeasRef(k)], DetectorBasis::Z));
        }
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 0,
            records: vec![MeasRef(n_checks)],
        });
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        DecodingGraph::from_dem(&dem)
    }

    #[test]
    fn empty_syndrome_predicts_nothing() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        assert_eq!(d.predict(&[]), 0);
    }

    #[test]
    fn single_defect_matches_to_nearest_boundary() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        // Defect at detector 0: nearest boundary is the left one, whose
        // edge carries the observable.
        assert_eq!(d.predict(&[0]), 1);
        // Defect at the last detector: right boundary, no observable.
        assert_eq!(d.predict(&[3]), 0);
    }

    #[test]
    fn adjacent_pair_matches_internally() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        // Defects at detectors 1,2: error on data qubit 2 — no logical
        // flip.
        assert_eq!(d.predict(&[1, 2]), 0);
    }

    #[test]
    fn error_past_the_middle_flips_logical() {
        // A single data-0 error flips only detector 0 and the
        // observable; the decoder should predict the flip.
        let d = UfDecoder::new(chain_graph(6, 0.01));
        assert_eq!(d.predict(&[0]), 1);
    }

    #[test]
    fn peeling_conserves_parity() {
        // Any syndrome must produce *some* valid correction without
        // panicking; randomized smoke test.
        use rand::{Rng, SeedableRng};
        let d = UfDecoder::new(chain_graph(8, 0.01));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let flagged: Vec<u32> = (0..8).filter(|_| rng.gen_bool(0.3)).collect();
            let _ = d.predict(&flagged);
        }
    }

    #[test]
    fn declares_a_graph_sized_capacity() {
        let d = UfDecoder::new(chain_graph(4, 0.01));
        let cap = d.scratch_capacity();
        assert_eq!(cap.nodes, d.graph().num_detectors());
        assert_eq!(cap.edges as usize, d.graph().edges().len());
        assert_eq!(cap.exact_limit, 0);
    }
}
