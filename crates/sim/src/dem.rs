//! Detector error model extraction.

use ftqc_circuit::{Circuit, Op, Qubit};
use std::collections::HashMap;

/// One independent error mechanism: with probability `probability` the
/// listed detectors and observables flip.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    /// Occurrence probability.
    pub probability: f64,
    /// Flipped detectors, sorted ascending.
    pub detectors: Vec<u32>,
    /// Bitmask of flipped logical observables (observable `i` is bit
    /// `i`; at most 32 observables are supported).
    pub observables: u32,
}

/// Statistics from DEM extraction, mainly for diagnosing decompositions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemStats {
    /// Error-channel Pauli components examined.
    pub components: usize,
    /// Components whose detector footprint exceeded 2 detectors after
    /// CSS splitting and had to be decomposed against elementary edges.
    pub decomposed_hyperedges: usize,
    /// Hyperedges that could not be decomposed and were dropped from the
    /// model (the sampler still produces them; the decoder just has no
    /// edge for them). Nonzero values indicate a circuit structure the
    /// decoder graph cannot represent.
    pub dropped_hyperedges: usize,
}

/// A detector error model: the set of independent error mechanisms of a
/// noisy circuit together with their detector/observable footprints.
///
/// Extracted by a backward *sensitivity sweep*: walking the circuit in
/// reverse while maintaining, for every qubit, the set of measurement
/// records that an X (resp. Z) error at the current position would flip.
/// Each noise-channel component is then mapped through the
/// record-to-detector tables. With `decompose` enabled (the default for
/// matching decoders), every component is first split into its X part
/// and Z part — the CSS decomposition that keeps mechanisms *graphlike*
/// (at most 2 flipped detectors), exactly as Stim's `decompose_errors`
/// does for surface-code circuits.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Circuit, DetectorBasis, MeasRef, Op};
/// use ftqc_sim::DetectorErrorModel;
///
/// let mut c = Circuit::new(1);
/// c.push(Op::ResetZ(vec![0]));
/// c.push(Op::Depolarize1 { qubits: vec![0], p: 0.01 });
/// c.push(Op::measure_z([0], 0.0));
/// c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
/// let (dem, stats) = DetectorErrorModel::from_circuit(&c, true);
/// assert_eq!(dem.mechanisms().len(), 1); // X and Y components merge
/// assert_eq!(stats.dropped_hyperedges, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    mechanisms: Vec<Mechanism>,
}

impl DetectorErrorModel {
    /// Extracts the detector error model of `circuit`.
    ///
    /// With `decompose = true`, components are CSS-split into X/Z parts
    /// and residual hyperedges are greedily decomposed against
    /// elementary (≤ 2 detector) mechanisms.
    pub fn from_circuit(circuit: &Circuit, decompose: bool) -> (DetectorErrorModel, DemStats) {
        Extractor::new(circuit).extract(decompose)
    }

    /// Assembles a model directly from its parts — the seam
    /// `ftqc-analyzer` uses to reconstruct a model from a `.dem` text
    /// file. No validation happens here; run the analyzer's artifact
    /// checks over the result before decoding through it.
    pub fn from_parts(
        num_detectors: usize,
        num_observables: usize,
        mechanisms: Vec<Mechanism>,
    ) -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors,
            num_observables,
            mechanisms,
        }
    }

    /// Number of detectors in the underlying circuit.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables in the underlying circuit.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The independent error mechanisms.
    pub fn mechanisms(&self) -> &[Mechanism] {
        &self.mechanisms
    }
}

/// Sorted-vec symmetric difference (XOR of sets).
fn symdiff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

struct Extractor<'a> {
    circuit: &'a Circuit,
    /// Records flipped by an X error on qubit q at the current (reverse)
    /// position.
    eff_x: Vec<Vec<u32>>,
    /// Records flipped by a Z error on qubit q.
    eff_z: Vec<Vec<u32>>,
    /// For each record: detectors containing it.
    rec_to_dets: Vec<Vec<u32>>,
    /// For each record: observable bitmask.
    rec_to_obs: Vec<u32>,
}

#[derive(Debug)]
struct RawComponent {
    probability: f64,
    detectors: Vec<u32>,
    observables: u32,
}

impl<'a> Extractor<'a> {
    fn new(circuit: &'a Circuit) -> Extractor<'a> {
        let n = circuit.num_qubits() as usize;
        let nrec = circuit.num_measurements() as usize;
        let mut rec_to_dets = vec![Vec::new(); nrec];
        let mut rec_to_obs = vec![0u32; nrec];
        let mut det = 0u32;
        for op in circuit.ops() {
            match op {
                Op::Detector { records, .. } => {
                    for r in records {
                        rec_to_dets[r.0 as usize].push(det);
                    }
                    det += 1;
                }
                Op::ObservableInclude {
                    observable,
                    records,
                } => {
                    assert!(
                        *observable < 32,
                        "at most 32 observables supported, got index {observable}"
                    );
                    for r in records {
                        rec_to_obs[r.0 as usize] ^= 1u32 << observable;
                    }
                }
                _ => {}
            }
        }
        Extractor {
            circuit,
            eff_x: vec![Vec::new(); n],
            eff_z: vec![Vec::new(); n],
            rec_to_dets,
            rec_to_obs,
        }
    }

    fn extract(mut self, decompose: bool) -> (DetectorErrorModel, DemStats) {
        let mut stats = DemStats::default();
        let mut raw: Vec<RawComponent> = Vec::new();
        // Walk records backward: assign indices by pre-scanning.
        let mut next_record = self.circuit.num_measurements();
        let ops: Vec<&Op> = self.circuit.ops().iter().collect();
        for op in ops.into_iter().rev() {
            match op {
                Op::H(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        self.eff_x.swap(q, q); // no-op to appease clippy
                        let (x, z) = (
                            std::mem::take(&mut self.eff_x[q]),
                            std::mem::take(&mut self.eff_z[q]),
                        );
                        self.eff_x[q] = z;
                        self.eff_z[q] = x;
                    }
                }
                Op::S(qs) => {
                    // X -> Y = X*Z after the gate, so the effect of an X
                    // inserted before S is effX xor effZ.
                    for &q in qs {
                        let q = q as usize;
                        self.eff_x[q] = symdiff(&self.eff_x[q], &self.eff_z[q]);
                    }
                }
                Op::X(_) | Op::Y(_) | Op::Z(_) => {}
                Op::Cx(pairs) => {
                    for &(c, t) in pairs {
                        let (c, t) = (c as usize, t as usize);
                        // X_c -> X_c X_t; Z_t -> Z_c Z_t.
                        self.eff_x[c] = symdiff(&self.eff_x[c], &self.eff_x[t]);
                        self.eff_z[t] = symdiff(&self.eff_z[t], &self.eff_z[c]);
                    }
                }
                Op::ResetZ(qs) | Op::ResetX(qs) => {
                    for &q in qs {
                        self.eff_x[q as usize].clear();
                        self.eff_z[q as usize].clear();
                    }
                }
                Op::MeasureZ {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::Z, false);
                        self.emit_flip(&mut raw, *flip_probability, next_record);
                    }
                }
                Op::MeasureX {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::X, false);
                        self.emit_flip(&mut raw, *flip_probability, next_record);
                    }
                }
                Op::MeasureReset {
                    qubits,
                    flip_probability,
                } => {
                    for &q in qubits.iter().rev() {
                        next_record -= 1;
                        stats.components += 1;
                        self.measure_update(q, next_record, MeasKind::Z, true);
                        self.emit_flip(&mut raw, *flip_probability, next_record);
                    }
                }
                Op::PauliChannel { qubits, px, py, pz } => {
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if *px > 0.0 {
                            self.emit(&mut raw, *px, self.eff_x[q].clone());
                        }
                        if *py > 0.0 {
                            let recs = symdiff(&self.eff_x[q], &self.eff_z[q]);
                            self.emit(&mut raw, *py, recs);
                        }
                        if *pz > 0.0 {
                            self.emit(&mut raw, *pz, self.eff_z[q].clone());
                        }
                    }
                }
                Op::Depolarize1 { qubits, p } => {
                    let pc = p / 3.0;
                    for &q in qubits {
                        let q = q as usize;
                        stats.components += 3;
                        if pc > 0.0 {
                            self.emit(&mut raw, pc, self.eff_x[q].clone());
                            self.emit(&mut raw, pc, symdiff(&self.eff_x[q], &self.eff_z[q]));
                            self.emit(&mut raw, pc, self.eff_z[q].clone());
                        }
                    }
                }
                Op::Depolarize2 { pairs, p } => {
                    let pc = p / 15.0;
                    if pc <= 0.0 {
                        continue;
                    }
                    for &(a, b) in pairs {
                        stats.components += 15;
                        for code in 1u8..16 {
                            let recs_a = self.pauli_records(a, code >> 2);
                            let recs_b = self.pauli_records(b, code & 3);
                            self.emit(&mut raw, pc, symdiff(&recs_a, &recs_b));
                        }
                    }
                }
                Op::Detector { .. } | Op::ObservableInclude { .. } => {}
            }
        }
        debug_assert_eq!(next_record, 0, "record bookkeeping drift");

        // Map raw record-sets to detector sets via symmetric difference,
        // then merge / decompose.
        let merged = self.merge(raw, decompose, &mut stats);
        (
            DetectorErrorModel {
                num_detectors: self.circuit.num_detectors() as usize,
                num_observables: self.circuit.num_observables() as usize,
                mechanisms: merged,
            },
            stats,
        )
    }

    /// Records flipped by Pauli `code` (0=I,1=X,2=Y,3=Z) on qubit `q`.
    fn pauli_records(&self, q: Qubit, code: u8) -> Vec<u32> {
        let q = q as usize;
        match code {
            0 => Vec::new(),
            1 => self.eff_x[q].clone(),
            2 => symdiff(&self.eff_x[q], &self.eff_z[q]),
            _ => self.eff_z[q].clone(),
        }
    }

    /// A classical readout flip of `record` with probability `p` is an
    /// error mechanism of its own.
    fn emit_flip(&self, raw: &mut Vec<RawComponent>, p: f64, record: u32) {
        if p > 0.0 {
            self.emit(raw, p, vec![record]);
        }
    }

    fn measure_update(&mut self, q: Qubit, record: u32, kind: MeasKind, reset: bool) {
        let q = q as usize;
        match kind {
            MeasKind::Z => {
                // An X error before MZ flips the record; it survives the
                // measurement unless there is a reset. A Z error before
                // MZ neither flips nor survives.
                if reset {
                    self.eff_x[q] = vec![record];
                } else {
                    self.eff_x[q] = symdiff(&self.eff_x[q], &[record]);
                }
                self.eff_z[q].clear();
            }
            MeasKind::X => {
                if reset {
                    self.eff_z[q] = vec![record];
                } else {
                    self.eff_z[q] = symdiff(&self.eff_z[q], &[record]);
                }
                self.eff_x[q].clear();
            }
        }
    }

    fn emit(&self, raw: &mut Vec<RawComponent>, p: f64, records: Vec<u32>) {
        if records.is_empty() {
            return;
        }
        let mut dets: Vec<u32> = Vec::new();
        let mut obs = 0u32;
        for r in records {
            dets = symdiff(&dets, &self.rec_to_dets[r as usize]);
            obs ^= self.rec_to_obs[r as usize];
        }
        if dets.is_empty() && obs == 0 {
            return;
        }
        raw.push(RawComponent {
            probability: p,
            detectors: dets,
            observables: obs,
        });
    }

    fn merge(
        &self,
        raw: Vec<RawComponent>,
        decompose: bool,
        stats: &mut DemStats,
    ) -> Vec<Mechanism> {
        let mut map: HashMap<(Vec<u32>, u32), f64> = HashMap::new();
        let mut add = |dets: Vec<u32>, obs: u32, p: f64| {
            let e = map.entry((dets, obs)).or_insert(0.0);
            // Two ways to produce the same flip pattern combine as
            // "exactly one occurs".
            *e = *e * (1.0 - p) + p * (1.0 - *e);
        };
        if !decompose {
            for c in raw {
                add(c.detectors, c.observables, c.probability);
            }
        } else {
            // First pass: everything graphlike goes in directly and
            // registers as an elementary edge, keyed by its detectors
            // with the observable mask of the last such component.
            let mut obs_for: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut pending: Vec<RawComponent> = Vec::new();
            for c in raw {
                if c.detectors.len() <= 2 {
                    obs_for.insert(c.detectors.clone(), c.observables);
                    add(c.detectors, c.observables, c.probability);
                } else {
                    pending.push(c);
                }
            }
            for c in pending {
                stats.decomposed_hyperedges += 1;
                match decompose_against(&c.detectors, &obs_for) {
                    Some(parts) => {
                        // Distribute observables: assign the component's
                        // observable mask XOR of the parts' own known
                        // masks to the first part so the total is right.
                        let mut assigned = 0u32;
                        let known: Vec<u32> = parts
                            .iter()
                            .map(|p| obs_for.get(p).copied().unwrap_or(0))
                            .collect();
                        for (i, part) in parts.iter().enumerate() {
                            let mut o = known[i];
                            if i == 0 {
                                let total_known: u32 = known.iter().fold(0, |a, b| a ^ b);
                                o ^= c.observables ^ total_known;
                            }
                            assigned ^= o;
                            add(part.clone(), o, c.probability);
                        }
                        debug_assert_eq!(assigned, c.observables);
                    }
                    None => {
                        stats.dropped_hyperedges += 1;
                    }
                }
            }
        }
        let mut out: Vec<Mechanism> = map
            .into_iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|((detectors, observables), probability)| Mechanism {
                probability,
                detectors,
                observables,
            })
            .collect();
        out.sort_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        out
    }
}

/// Tries to partition `dets` (sorted, > 2 entries) into groups of 1–2
/// detectors such that every group is an existing elementary edge (a
/// key of `edges`).
fn decompose_against(dets: &[u32], edges: &HashMap<Vec<u32>, u32>) -> Option<Vec<Vec<u32>>> {
    if dets.is_empty() {
        return Some(Vec::new());
    }
    let first = dets[0];
    // Try pairing `first` with each other detector.
    for (i, &other) in dets.iter().enumerate().skip(1) {
        let pair = vec![first, other];
        if edges.contains_key(&pair) {
            let mut rest: Vec<u32> = Vec::with_capacity(dets.len() - 2);
            for (j, &d) in dets.iter().enumerate() {
                if j != 0 && j != i {
                    rest.push(d);
                }
            }
            if let Some(mut sub) = decompose_against(&rest, edges) {
                sub.insert(0, pair);
                return Some(sub);
            }
        }
    }
    // Try `first` alone as a boundary edge.
    let single = vec![first];
    if edges.contains_key(&single) {
        if let Some(mut sub) = decompose_against(&dets[1..], edges) {
            sub.insert(0, single);
            return Some(sub);
        }
    }
    None
}

enum MeasKind {
    X,
    Z,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::{DetectorBasis, MeasRef};

    #[test]
    fn symdiff_basics() {
        assert_eq!(symdiff(&[1, 3, 5], &[3, 4]), vec![1, 4, 5]);
        assert_eq!(symdiff(&[], &[2]), vec![2]);
        assert_eq!(symdiff(&[2], &[2]), Vec::<u32>::new());
    }

    #[test]
    fn single_qubit_channel_footprint() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.01,
            py: 0.0,
            pz: 0.02,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        // Only the X component flips the detector; the Z component has no
        // footprint and is dropped.
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
        assert!((dem.mechanisms()[0].probability - 0.01).abs() < 1e-12);
    }

    #[test]
    fn x_and_y_components_merge() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::Depolarize1 {
            qubits: vec![0],
            p: 0.3,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        // p(X) + p(Y) - 2 p(X) p(Y) with each 0.1.
        let expect = 0.1 + 0.1 - 2.0 * 0.01;
        assert!((dem.mechanisms()[0].probability - expect).abs() < 1e-12);
    }

    #[test]
    fn cx_propagation_reaches_both_records() {
        // X error on control before CX flips both subsequent Z
        // measurements.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.05,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::cx([(0, 1)]));
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0, 1]);
    }

    #[test]
    fn observables_tracked() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.01,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::ObservableInclude {
            observable: 2,
            records: vec![MeasRef(0)],
        });
        let (dem, _) = DetectorErrorModel::from_circuit(&c, false);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].observables, 1 << 2);
        assert_eq!(dem.num_observables(), 3);
    }

    #[test]
    fn measurement_flip_is_its_own_mechanism() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::measure_reset([0], 0.0));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0), MeasRef(1)], DetectorBasis::Z));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 0.0,
        });
        // No noise at all: empty DEM.
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert!(dem.mechanisms().is_empty());
    }

    #[test]
    fn x_before_measure_reset_hits_only_that_record() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.02,
            py: 0.0,
            pz: 0.0,
        });
        c.push(Op::measure_reset([0], 0.0));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
    }

    #[test]
    fn h_swaps_sensitivity() {
        let mut c = Circuit::new(1);
        c.push(Op::ResetZ(vec![0]));
        c.push(Op::PauliChannel {
            qubits: vec![0],
            px: 0.0,
            py: 0.0,
            pz: 0.04,
        });
        c.push(Op::h([0]));
        c.push(Op::measure_z([0], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, true);
        assert_eq!(dem.mechanisms().len(), 1);
        assert!((dem.mechanisms()[0].probability - 0.04).abs() < 1e-12);
    }

    #[test]
    fn decompose_against_splits_into_pairs() {
        let mut edges = HashMap::new();
        edges.insert(vec![0, 1], 0);
        edges.insert(vec![2, 3], 0);
        let parts = decompose_against(&[0, 1, 2, 3], &edges).unwrap();
        assert_eq!(parts, vec![vec![0, 1], vec![2, 3]]);
        assert!(decompose_against(&[0, 2, 3], &edges).is_none());
        edges.insert(vec![0], 0);
        let parts = decompose_against(&[0, 2, 3], &edges).unwrap();
        assert_eq!(parts, vec![vec![0], vec![2, 3]]);
    }

    #[test]
    fn dem_rates_match_sampler() {
        // Cross-validate: detector marginal rate predicted by the DEM
        // matches the frame sampler on a two-detector circuit.
        let mut c = Circuit::new(2);
        c.push(Op::ResetZ(vec![0, 1]));
        c.push(Op::Depolarize2 {
            pairs: vec![(0, 1)],
            p: 0.15,
        });
        c.push(Op::measure_z([0, 1], 0.0));
        c.push(Op::detector([MeasRef(0)], DetectorBasis::Z));
        c.push(Op::detector([MeasRef(1)], DetectorBasis::Z));
        let (dem, _) = DetectorErrorModel::from_circuit(&c, false);
        // Predicted marginal for detector 0: sum over mechanisms
        // containing it (small p approximation fine at exact level here
        // because mechanisms are disjoint events from one channel).
        let p0: f64 = dem
            .mechanisms()
            .iter()
            .filter(|m| m.detectors.contains(&0))
            .map(|m| m.probability)
            .sum();
        let batch = crate::sample_batch(&c, 400_000, 17);
        let measured = batch.count_detector_flips(0) as f64 / 400_000.0;
        assert!(
            (p0 - measured).abs() < 0.005,
            "dem {p0} vs sampled {measured}"
        );
    }
}
