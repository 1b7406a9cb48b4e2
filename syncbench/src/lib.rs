//! `syncbench`: the closed-loop benchmark of the lattice-sync decode
//! stack.
//!
//! Each workload is single-process and single-worker (`threads(1)`),
//! and calls the same public entry points a `repro` run or a user's
//! streaming loop calls:
//!
//! * `surgery-mwpm-d5`: d = 5 Z-basis Lattice Surgery at tau = 1000 ns,
//!   a Passive and an Active arm with shots split evenly, decoded by
//!   [`DecoderKind::Mwpm`] (the Fig. 14 path).
//! * `stream-uf-d11`: a d = 11, 44-round memory experiment decoded round
//!   by round through `StreamingConfig::fused(2, 1)` over union-find:
//!   `push_round` per round, `flush_round` until it returns `None`,
//!   then `finish_shot`. Rounds are pushed back to back (closed loop).
//!
//! All use IBM hardware with the standard circuit noise at
//! p = 1e-3. A run measures for a fixed number of seconds, one batch
//! per arm at a time, so the shots it covers always form a prefix of
//! the batch plan `EvalPipeline::run` would execute with the same
//! seed and batch size.
//!
//! An untraced run ([`Options::trace`] off) gives the end-to-end
//! metrics ([`END_TO_END`]): batch workloads run `count_batch_errors`
//! through a decoder adapter that times each `decode_into`, streaming
//! workloads time each `push_round` and `flush_round` call. A traced
//! run spends half its time in the library's own batch entry points
//! (`count_batch_errors`, `count_batch_errors_streaming`), then replays
//! the same shots through `parallel_batches_with` with timers around
//! each layer call, and reports [`PER_LAYER`]. The timers live only in
//! this crate; no telemetry sink is installed. The replay must reproduce
//! the library entry points' failure counts exactly.
//!
//! Every run checks its outputs (see [`Check`]); a run that fails a
//! check counts all its shots as failed operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ftqc_circuit::{Circuit, Schedule};
use ftqc_decoder::{
    count_batch_errors, count_batch_errors_streaming, AnyDecoder, Decoder, DecoderKind,
    DecoderScratch, DecodingGraph, ScratchCapacity, StreamingConfig,
};
use ftqc_experiments::{EvalPipeline, EvalPipelineBuilder, LsSetup};
use ftqc_noise::{CircuitNoiseModel, HardwareConfig};
use ftqc_sim::{
    batch_plan, parallel_batches_with, BatchSpec, BinomialEstimate, DetectorErrorModel,
    RoundSchedule, RoundStream, SampleBatch, SyndromeScanner,
};
use ftqc_surface::{LatticeSurgeryConfig, MemoryConfig};
use ftqc_sync::PolicySpec;

/// Physical error rate of the standard circuit noise model.
pub const PHYSICAL_ERROR: f64 = 1e-3;

/// The seed the committed reference bands were measured with. Timed
/// runs refuse it, so no timed run ever re-samples the reference
/// shots.
pub const REFERENCE_SEED: u64 = 1_000_000_007;

/// Today's exact-matching limit of `MwpmDecoder`: syndromes with more
/// defects than this fall back to union-find. Written as a literal on
/// purpose, so `sim.over16_share` keeps its meaning when the limit
/// goes away.
pub const EXACT_LIMIT_TODAY: usize = 16;

/// Standard deviations of slack in the output checks.
const CHECK_Z: f64 = 4.0;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
/// Throughput and p99 are measured per segment of the timed phase
/// ([`Workload::segment_s`]); a run reports the upper quartile of the
/// segment rates and the median of the segment p99s.
pub const END_TO_END: [(&str, &str); 4] = [
    ("shots_per_s", "1/s"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer a
/// workload does not exercise reports `0`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("decoder.decode_s", "s"),
    ("decoder.decode_share", "ratio"),
    ("decoder.decode_p50_us", "us"),
    ("decoder.decode_p99_us", "us"),
    ("decoder.decode_calls", "count"),
    ("decoder.ns_per_defect", "ns"),
    ("decoder.graph_s", "s"),
    ("decoder.build_s", "s"),
    ("decoder.graph_edges", "count"),
    ("sim.defects_p50", "count"),
    ("sim.defects_p99", "count"),
    ("sim.over16_share", "ratio"),
    ("sim.sample_s", "s"),
    ("sim.sample_share", "ratio"),
    ("sim.scan_s", "s"),
    ("sim.round_extract_s", "s"),
    ("sim.dem_s", "s"),
    ("sim.dem_mechanisms", "count"),
    ("surface.circuit_s", "s"),
    ("noise.lower_s", "s"),
    ("stream.push_s", "s"),
    ("stream.push_share", "ratio"),
    ("stream.decodes_per_round", "1/round"),
    ("stream.defects_per_round", "count"),
    ("stream.boundary_defects_per_commit", "count"),
    ("stream.finish_s", "s"),
    ("stream.round_p50_us", "us"),
    ("exp.layer_coverage", "ratio"),
    ("exp.trace_overhead", "ratio"),
];

/// Where an arm's circuit comes from.
pub enum Source {
    /// Two-patch Lattice Surgery.
    Surgery(LatticeSurgeryConfig),
    /// Single-patch memory experiment.
    Memory(MemoryConfig),
}

impl Source {
    fn pipeline(&self) -> EvalPipelineBuilder {
        match self {
            Source::Surgery(cfg) => EvalPipeline::lattice_surgery(cfg.clone()),
            Source::Memory(cfg) => EvalPipeline::memory(cfg.clone()),
        }
    }

    fn schedule(&self) -> Schedule {
        match self {
            Source::Surgery(cfg) => cfg.build(),
            Source::Memory(cfg) => cfg.build(),
        }
    }

    fn hardware(&self) -> &HardwareConfig {
        match self {
            Source::Surgery(cfg) => &cfg.hardware,
            Source::Memory(cfg) => &cfg.hardware,
        }
    }
}

/// One evaluated configuration of a workload; arms share the run's
/// shots evenly.
pub struct Arm {
    /// Label used in the run summary.
    pub label: &'static str,
    /// The circuit source.
    pub source: Source,
}

/// The output check of a workload, with its committed reference band.
///
/// Bands are rates measured once with [`REFERENCE_SEED`] (see
/// [`measure_check`]). A run of `n` shots passes when its count stays
/// below `n·u + 4·sqrt(n·u) + 1` for a band edge `u`.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Batch workloads: per arm, per observable, the upper edge of the
    /// reference logical error rate. One-sided on purpose: a better
    /// decoder may lower the rate.
    LerBelow(Vec<Vec<f64>>),
    /// Streaming workloads, per observable: fused failures may exceed
    /// batch-decoded failures on the same shots by at most the
    /// reference excess rate `excess` plus binomial slack on the
    /// reference rate `disagree` of shots where the two disagree.
    FusedNear {
        /// Upper edge of `(fused − batch failures) / shots`.
        excess: Vec<f64>,
        /// Upper edge of the share of shots where exactly one of the
        /// two decodes fails.
        disagree: Vec<f64>,
    },
}

/// A benchmark workload.
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// The evaluated configurations.
    pub arms: Vec<Arm>,
    /// Decoder family, always named explicitly.
    pub decoder: DecoderKind,
    /// Shots per sampling batch; also the granularity of a timed run.
    pub batch_shots: usize,
    /// Shortest segment of a timed phase, in seconds: a run of whole
    /// cycles (one batch per arm) over which end-to-end throughput and
    /// tail latency are measured. Long enough for about 8k decode
    /// steps, so a segment's p99 rests on some 80 samples.
    pub segment_s: f64,
    /// Timed set-ups per untraced run, back to back after one untimed
    /// warm-up; `setup_s` is their median. The warm-up takes the cold
    /// start (page faults while the heap first grows) out of every timed
    /// set-up. A fixed count, so every run sees the same set-ups and the
    /// same peak memory; about 2 s or more of set-ups, so their median
    /// does not rest on one instant of a shared host.
    pub setup_reps: usize,
    /// Streaming configuration; `None` for batch decoding.
    pub stream: Option<StreamingConfig>,
    /// Output check.
    pub check: Check,
}

impl Workload {
    /// Z-basis Lattice Surgery at distance `d`, tau = 1000 ns, Passive
    /// and Active arms, exact-matching decoder.
    pub fn surgery_mwpm(d: u32, check: Check) -> Workload {
        let hw = HardwareConfig::ibm();
        let arm = |label, policy| Arm {
            label,
            source: Source::Surgery(LsSetup::homogeneous(d, &hw, policy, 1000.0).surgery_config()),
        };
        Workload {
            name: format!("surgery-mwpm-d{d}"),
            arms: vec![
                arm("passive", PolicySpec::Passive),
                arm("active", PolicySpec::Active),
            ],
            decoder: DecoderKind::Mwpm,
            batch_shots: 256,
            segment_s: 5.0,
            setup_reps: 25,
            stream: None,
            check,
        }
    }

    /// A `rounds`-round memory experiment at distance `d`, streamed
    /// through fused windows (W = 2, overlap 1) over union-find.
    pub fn stream_uf(d: u32, rounds: u32, check: Check) -> Workload {
        Workload {
            name: format!("stream-uf-d{d}"),
            arms: vec![memory_arm(d, rounds)],
            decoder: DecoderKind::UnionFind,
            batch_shots: 64,
            segment_s: 1.0,
            setup_reps: 7,
            stream: Some(StreamingConfig::fused(2, 1)),
            check,
        }
    }

    /// The benchmark's workloads, with their committed reference bands
    /// (`syncbench --workload <name> --reference <shots>` with 100 000
    /// surgery shots per arm and 20 000 streamed shots, rounded up in
    /// the last digit).
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "surgery-mwpm-d5" => Some(Workload::surgery_mwpm(
                5,
                Check::LerBelow(vec![
                    vec![0.004_720_3, 0.003_771_6, 0.008_111_0],
                    vec![0.004_569_9, 0.003_652_3, 0.007_741_5],
                ]),
            )),
            "stream-uf-d11" => Some(Workload::stream_uf(
                11,
                44,
                Check::FusedNear {
                    excess: vec![0.089_586],
                    disagree: vec![0.089_713],
                },
            )),
            _ => None,
        }
    }
}

fn memory_arm(d: u32, rounds: u32) -> Arm {
    Arm {
        label: "memory",
        source: Source::Memory(MemoryConfig::new(d, rounds, &HardwareConfig::ibm())),
    }
}

/// Replaces the decoder under test, given the workload's real decoder
/// (tests use it to show that the output checks can fail).
pub type Substitute = for<'a> fn(&'a AnyDecoder) -> Box<dyn Decoder + 'a>;

/// How to run a workload.
#[derive(Clone, Copy)]
pub struct Options {
    /// Workload seed: every sampled shot derives from it.
    pub seed: u64,
    /// Measured seconds (split between the library pass and the
    /// traced replay in a traced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Decoder under test in place of the real one.
    pub substitute: Option<Substitute>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Shots attempted.
    pub attempted: u64,
    /// Shots counted as failed operations.
    pub failed: u64,
    /// Metrics in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable run summary (checks, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Per-call accounting of a measured pass. Counts are exact; `_ns`
/// fields are busy times. Fields a loop does not measure stay zero.
#[derive(Debug, Clone, Default)]
struct Tally {
    shots: u64,
    /// Logical failures per observable.
    errors: Vec<u64>,
    /// Wall time of the `parallel_batches_with` calls (sampling included).
    wall_ns: u64,
    /// Time inside the per-batch closures (everything but sampling).
    closure_ns: u64,
    /// Shots with more than [`EXACT_LIMIT_TODAY`] defects.
    over16: u64,
    scan_ns: u64,
    decode_ns: u64,
    decode_calls: u64,
    defects_decoded: u64,
    extract_ns: u64,
    push_ns: u64,
    finish_ns: u64,
    rounds: u64,
    round_defects: u64,
    commits: u64,
    boundary_defects: u64,
    /// Shots whose last commit's `cumulative` differs from
    /// `finish_shot()`.
    mismatches: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        if self.errors.is_empty() {
            self.errors = other.errors;
        } else {
            for (a, b) in self.errors.iter_mut().zip(other.errors) {
                *a += b;
            }
        }
        self.shots += other.shots;
        self.wall_ns += other.wall_ns;
        self.closure_ns += other.closure_ns;
        self.over16 += other.over16;
        self.scan_ns += other.scan_ns;
        self.decode_ns += other.decode_ns;
        self.decode_calls += other.decode_calls;
        self.defects_decoded += other.defects_decoded;
        self.extract_ns += other.extract_ns;
        self.push_ns += other.push_ns;
        self.finish_ns += other.finish_ns;
        self.rounds += other.rounds;
        self.round_defects += other.round_defects;
        self.commits += other.commits;
        self.boundary_defects += other.boundary_defects;
        self.mismatches += other.mismatches;
    }

    fn merged(parts: impl IntoIterator<Item = Tally>) -> Tally {
        let mut total = Tally::default();
        for part in parts {
            total.absorb(part);
        }
        total
    }

    /// Counts only: what the library entry points return.
    fn from_errors(per_batch: Vec<Vec<u64>>, plan: &[BatchSpec]) -> Tally {
        Tally::merged(
            per_batch
                .into_iter()
                .zip(plan)
                .map(|(errors, &(_, size))| Tally {
                    shots: size as u64,
                    errors,
                    ..Tally::default()
                }),
        )
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sub-buckets per power of two in a [`Histogram`].
const SUB_BITS: u32 = 6;
/// Values below this have a bucket of their own.
const EXACT_BELOW: u64 = 2 << SUB_BITS;

/// A fixed-size log-linear histogram of non-negative integers: exact
/// below 128, then 64 buckets per power of two (each at most 1/64 of
/// its lower edge wide). Recording never allocates, so the run's memory
/// does not grow with its length. Relaxed atomics let a decoder adapter
/// record through a shared reference.
struct Histogram {
    counts: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: (0..=Histogram::index(u64::MAX))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < EXACT_BELOW {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let octave = u64::from(e - SUB_BITS - 1);
        (EXACT_BELOW + (octave << SUB_BITS) + (v >> (e - SUB_BITS)) - (1 << SUB_BITS)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < EXACT_BELOW {
            return (i, 1);
        }
        let j = i - EXACT_BELOW;
        let shift = (j >> SUB_BITS) + 1;
        let mantissa = (j & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS);
        (mantissa << shift, 1 << shift)
    }

    fn record(&self, v: u64) {
        self.counts[Histogram::index(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn len(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Nearest-rank quantile (`0` for no samples). Inside a bucket wider
    /// than 1 the bucket's samples are taken as spread evenly over it.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, count) in self.counts.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if seen + count >= rank {
                let (lo, width) = Histogram::bucket(i);
                if width == 1 {
                    return lo as f64;
                }
                let within = ((rank - seen) as f64 - 0.5) / count as f64;
                return lo as f64 + width as f64 * within;
            }
            seen += count;
        }
        unreachable!("rank {rank} is at most the sample count {n}")
    }
}

/// Per-call samples of a pass.
#[derive(Default)]
struct Samples {
    /// Latency of the user-visible decode step: one non-empty
    /// `decode_into` (batch) or one `push_round`/`flush_round` (stream).
    latency_ns: Histogram,
    /// Defects per shot (traced passes only).
    defects: Histogram,
}

/// The decoder under test, timing every `decode_into` of a non-empty
/// syndrome. Untraced batch runs drive `count_batch_errors` through it,
/// which decodes the empty syndrome once per worker and memoizes it.
struct Timing<'a> {
    inner: &'a dyn Decoder,
    latency_ns: &'a Histogram,
}

impl Decoder for Timing<'_> {
    fn decode_into(&self, scratch: &mut DecoderScratch, syndrome: &[u32], correction: &mut u32) {
        if syndrome.is_empty() {
            return self.inner.decode_into(scratch, syndrome, correction);
        }
        let start = Instant::now();
        self.inner.decode_into(scratch, syndrome, correction);
        self.latency_ns.record(nanos(start.elapsed()));
    }

    fn scratch_capacity(&self) -> ScratchCapacity {
        self.inner.scratch_capacity()
    }
}

fn score(errors: &mut [u64], batch: &SampleBatch, s: usize, predicted: u32) {
    for (o, err) in errors.iter_mut().enumerate() {
        if batch.observable(o, s) != ((predicted >> o) & 1 == 1) {
            *err += 1;
        }
    }
}

/// The traced replay of a batch workload: samples and batch-decodes
/// `plan` exactly as `count_batch_errors` does (word-wise scan, memoized
/// empty syndrome), with timers around every scan and `decode_into`.
fn batch_pass(
    circuit: &Circuit,
    decoder: &dyn Decoder,
    plan: &[BatchSpec],
    seed: u64,
    samples: &Samples,
) -> Tally {
    let num_obs = circuit.num_observables() as usize;
    let start = Instant::now();
    let parts = parallel_batches_with(
        circuit,
        plan,
        seed,
        1,
        || {
            (
                DecoderScratch::for_decoder(decoder),
                Vec::new(),
                SyndromeScanner::new(),
                None::<u32>,
            )
        },
        |batch, (scratch, syndrome, scanner, empty_pred)| {
            let begin = Instant::now();
            let mut t = Tally {
                shots: batch.shots as u64,
                errors: vec![0; num_obs],
                ..Tally::default()
            };
            scanner.begin_batch(batch);
            t.scan_ns += nanos(begin.elapsed());
            for s in 0..batch.shots {
                let scan_start = Instant::now();
                scanner.flagged_into(batch, s, syndrome);
                let decode_start = Instant::now();
                t.scan_ns += nanos(decode_start - scan_start);
                samples.defects.record(syndrome.len() as u64);
                t.over16 += u64::from(syndrome.len() > EXACT_LIMIT_TODAY);
                let predicted = if syndrome.is_empty() {
                    *empty_pred.get_or_insert_with(|| {
                        let mut p = 0;
                        decoder.decode_into(scratch, &[], &mut p);
                        p
                    })
                } else {
                    let mut p = 0;
                    decoder.decode_into(scratch, syndrome, &mut p);
                    let ns = nanos(decode_start.elapsed());
                    samples.latency_ns.record(ns);
                    t.decode_ns += ns;
                    t.decode_calls += 1;
                    t.defects_decoded += syndrome.len() as u64;
                    p
                };
                score(&mut t.errors, batch, s, predicted);
            }
            t.closure_ns = nanos(begin.elapsed());
            t
        },
    );
    let mut total = Tally::merged(parts);
    total.wall_ns = nanos(start.elapsed());
    total
}

/// Samples `plan` and decodes every shot round by round through a
/// fresh streaming decoder: `push_round` per round, `flush_round`
/// until `None`, then `finish_shot`, timing every push and every
/// committing flush. `TRACE` adds round-extraction, finish and
/// defect accounting.
fn stream_pass<const TRACE: bool>(
    circuit: &Circuit,
    decoder: &dyn Decoder,
    config: StreamingConfig,
    schedule: &RoundSchedule,
    plan: &[BatchSpec],
    seed: u64,
    samples: &Samples,
) -> Tally {
    let num_obs = circuit.num_observables() as usize;
    let start = Instant::now();
    let parts = parallel_batches_with(
        circuit,
        plan,
        seed,
        1,
        || {
            (
                config.build(decoder, schedule),
                RoundStream::new(schedule),
                Vec::with_capacity(schedule.max_round_len()),
            )
        },
        |batch, (stream, rounds, defects)| {
            let begin = Instant::now();
            let decodes_before = stream.decode_count();
            let mut t = Tally {
                shots: batch.shots as u64,
                errors: vec![0; num_obs],
                ..Tally::default()
            };
            rounds.begin_batch(batch);
            if TRACE {
                t.extract_ns += nanos(begin.elapsed());
            }
            for s in 0..batch.shots {
                rounds.begin_shot(s);
                stream.begin_shot();
                let mut last = None;
                let mut shot_defects = 0u32;
                loop {
                    let extract_start = TRACE.then(Instant::now);
                    let more = rounds.next_round_into(batch, defects).is_some();
                    let push_start = Instant::now();
                    if let Some(extract_start) = extract_start {
                        t.extract_ns += nanos(push_start - extract_start);
                    }
                    if !more {
                        break;
                    }
                    let commit = stream.push_round(defects);
                    let ns = nanos(push_start.elapsed());
                    samples.latency_ns.record(ns);
                    t.push_ns += ns;
                    t.rounds += 1;
                    shot_defects += defects.len() as u32;
                    if let Some(c) = commit {
                        last = Some(c.cumulative);
                        t.commits += 1;
                        t.boundary_defects += c.boundary_defects as u64;
                    }
                }
                loop {
                    let flush_start = Instant::now();
                    let Some(c) = stream.flush_round() else { break };
                    let ns = nanos(flush_start.elapsed());
                    samples.latency_ns.record(ns);
                    t.push_ns += ns;
                    last = Some(c.cumulative);
                    t.commits += 1;
                    t.boundary_defects += c.boundary_defects as u64;
                }
                let finish_start = TRACE.then(Instant::now);
                let predicted = stream.finish_shot();
                if let Some(finish_start) = finish_start {
                    t.finish_ns += nanos(finish_start.elapsed());
                }
                if last != Some(predicted) {
                    t.mismatches += 1;
                }
                t.round_defects += shot_defects as u64;
                if TRACE {
                    samples.defects.record(u64::from(shot_defects));
                    t.over16 += u64::from(shot_defects as usize > EXACT_LIMIT_TODAY);
                }
                score(&mut t.errors, batch, s, predicted);
            }
            t.decode_calls = stream.decode_count() - decodes_before;
            t.closure_ns = nanos(begin.elapsed());
            t
        },
    );
    let mut total = Tally::merged(parts);
    total.wall_ns = nanos(start.elapsed());
    total
}

/// What a user's program holds after set-up: the pipeline (circuit,
/// DEM, graph, decoder) and, when streaming, the round schedule.
struct Prepared {
    pipeline: EvalPipeline,
    schedule: Option<RoundSchedule>,
}

fn arm_seed(seed: u64, arm: usize) -> u64 {
    seed.wrapping_mul(2).wrapping_add(arm as u64)
}

/// The user's set-up path for every arm: `EvalPipeline` build (circuit,
/// noise lowering, DEM extraction, graph), decoder build, and for
/// streaming workloads the round schedule and one streaming decoder.
fn prepare(w: &Workload, seed: u64) -> Vec<Prepared> {
    w.arms
        .iter()
        .enumerate()
        .map(|(i, arm)| {
            let pipeline = arm
                .source
                .pipeline()
                .physical_error(PHYSICAL_ERROR)
                .decoder(w.decoder)
                .batch_shots(w.batch_shots)
                .seed(arm_seed(seed, i))
                .threads(1)
                .build();
            pipeline.decoder();
            let schedule = w.stream.map(|config| {
                let schedule = RoundSchedule::from_circuit(pipeline.circuit());
                drop(config.build(pipeline.decoder(), &schedule));
                schedule
            });
            Prepared { pipeline, schedule }
        })
        .collect()
}

/// One segment of a timed phase.
struct Segment {
    shots_per_s: f64,
    /// p99 of the per-call latencies recorded in the segment (ns), or
    /// `0` when the pass records none.
    latency_p99_ns: f64,
}

/// A timed pass: the per-arm plans executed (one batch per call), the
/// per-arm tallies, the timed wall and its segments.
struct Timed {
    plans: Vec<Vec<BatchSpec>>,
    tallies: Vec<Tally>,
    /// Timed seconds, summed over segments.
    wall: f64,
    segments: Vec<Segment>,
    /// Per-call latency samples, summed over segments.
    latency_samples: u64,
}

impl Timed {
    fn new(arms: usize) -> Timed {
        Timed {
            plans: vec![Vec::new(); arms],
            tallies: vec![Tally::default(); arms],
            wall: 0.0,
            segments: Vec::new(),
            latency_samples: 0,
        }
    }

    /// Runs one batch per arm per cycle, continuing the plan where the
    /// last call stopped, for `seconds` cut into equal segments of at
    /// least [`Workload::segment_s`] (one segment if `seconds` is
    /// shorter). A segment ends with the first cycle that reaches its
    /// deadline, so at most one cycle overruns `seconds`. Each segment
    /// takes its p99 from `latency`, then clears it.
    fn run(
        &mut self,
        w: &Workload,
        seconds: f64,
        latency: Option<&Histogram>,
        mut call: impl FnMut(usize, &[BatchSpec]) -> Tally,
    ) {
        let segments = ((seconds / w.segment_s) as usize).max(1);
        let start = Instant::now();
        for k in 1..=segments {
            let deadline = seconds * k as f64 / segments as f64;
            let segment_start = Instant::now();
            let mut shots = 0;
            loop {
                let chunk = [(self.plans[0].len() as u64, w.batch_shots)];
                for (i, (tally, plan)) in self.tallies.iter_mut().zip(&mut self.plans).enumerate() {
                    tally.absorb(call(i, &chunk));
                    plan.push(chunk[0]);
                    shots += w.batch_shots;
                }
                if start.elapsed().as_secs_f64() >= deadline {
                    break;
                }
            }
            let secs = segment_start.elapsed().as_secs_f64();
            self.wall += secs;
            let latency_p99_ns = latency.map_or(0.0, |h| {
                self.latency_samples += h.len();
                let p99 = h.quantile(0.99);
                h.clear();
                p99
            });
            self.segments.push(Segment {
                shots_per_s: shots as f64 / secs,
                latency_p99_ns,
            });
        }
    }
}

/// Replays recorded plans in the same call order.
fn replay(
    plans: &[Vec<BatchSpec>],
    mut call: impl FnMut(usize, &[BatchSpec]) -> Tally,
) -> (Vec<Tally>, f64) {
    let mut tallies = vec![Tally::default(); plans.len()];
    let start = Instant::now();
    for c in 0..plans[0].len() {
        for (i, plan) in plans.iter().enumerate() {
            tallies[i].absorb(call(i, &plan[c..c + 1]));
        }
    }
    (tallies, start.elapsed().as_secs_f64())
}

/// `n·u + z·sqrt(n·u) + 1`: the largest count a run of `n` shots may
/// show against a band edge `u`.
fn allowance(n: u64, u: f64) -> f64 {
    let mean = n as f64 * u;
    mean + CHECK_Z * mean.sqrt() + 1.0
}

/// Applies the workload's output check to the per-arm tallies.
/// Streaming workloads batch-decode the same shots with the arm's real
/// decoder (untimed). Returns one line per violation.
fn check(
    w: &Workload,
    prepared: &[Prepared],
    plans: &[Vec<BatchSpec>],
    tallies: &[Tally],
) -> Vec<String> {
    let mut violations = Vec::new();
    match &w.check {
        Check::LerBelow(bands) => {
            for (i, t) in tallies.iter().enumerate() {
                for (o, (&errors, &u)) in t.errors.iter().zip(&bands[i]).enumerate() {
                    let limit = allowance(t.shots, u);
                    if errors as f64 > limit {
                        violations.push(format!(
                            "{} obs {o}: {errors} failures in {} shots exceeds {limit:.1} (band {u})",
                            w.arms[i].label, t.shots
                        ));
                    }
                }
            }
        }
        Check::FusedNear { excess, disagree } => {
            for (i, (p, t)) in prepared.iter().zip(tallies).enumerate() {
                let batch = Tally::from_errors(
                    count_batch_errors(
                        p.pipeline.circuit(),
                        p.pipeline.decoder(),
                        &plans[i],
                        p.pipeline.seed(),
                        1,
                    ),
                    &plans[i],
                );
                for o in 0..t.errors.len() {
                    let n = t.shots as f64;
                    let limit = batch.errors[o] as f64
                        + n * excess[o]
                        + CHECK_Z * (n * disagree[o]).sqrt()
                        + 1.0;
                    if t.errors[o] as f64 > limit {
                        violations.push(format!(
                            "{} obs {o}: {} fused failures exceed {limit:.1} ({} batch failures on the same {} shots)",
                            w.arms[i].label, t.errors[o], batch.errors[o], t.shots
                        ));
                    }
                }
            }
        }
    }
    let mismatched: u64 = tallies.iter().map(|t| t.mismatches).sum();
    if mismatched > 0 {
        violations.push(format!(
            "{mismatched} shots whose last commit's cumulative differs from finish_shot()"
        ));
    }
    violations
}

/// Runs `w` under `o`.
///
/// # Panics
///
/// Panics if `o.seed` is [`REFERENCE_SEED`].
pub fn run(w: &Workload, o: &Options) -> Report {
    assert_ne!(o.seed, REFERENCE_SEED, "the reference seed is reserved");
    if o.trace {
        run_traced(w, o)
    } else {
        run_untraced(w, o)
    }
}

/// The decoder under test: `real`, or its substitute.
fn under_test<'a>(real: &'a AnyDecoder, o: &Options) -> Box<dyn Decoder + 'a> {
    match o.substitute {
        Some(substitute) => substitute(real),
        None => Box::new(real),
    }
}

fn run_untraced(w: &Workload, o: &Options) -> Report {
    drop(prepare(w, o.seed));
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut prepared = Vec::new();
    for _ in 0..w.setup_reps {
        drop(std::mem::take(&mut prepared));
        let start = Instant::now();
        prepared = prepare(w, o.seed);
        setups.push(start.elapsed().as_secs_f64());
    }
    let decoders: Vec<_> = prepared
        .iter()
        .map(|p| under_test(p.pipeline.decoder(), o))
        .collect();
    let samples = Samples::default();
    let mut timed = Timed::new(w.arms.len());
    timed.run(w, o.seconds, Some(&samples.latency_ns), |i, chunk| {
        let p = &prepared[i];
        let (circuit, seed) = (p.pipeline.circuit(), p.pipeline.seed());
        let decoder = decoders[i].as_ref();
        match (w.stream, &p.schedule) {
            (Some(config), Some(schedule)) => {
                stream_pass::<false>(circuit, decoder, config, schedule, chunk, seed, &samples)
            }
            _ => {
                let timing = Timing {
                    inner: decoder,
                    latency_ns: &samples.latency_ns,
                };
                Tally::from_errors(count_batch_errors(circuit, &timing, chunk, seed, 1), chunk)
            }
        }
    });
    let peak_rss_mb = peak_rss_mb();
    let violations = check(w, &prepared, &timed.plans, &timed.tallies);
    let mut notes = summary(
        w,
        &timed.tallies,
        prepared.iter().map(|p| p.pipeline.circuit()),
    );
    let (mut rates, mut p99s): (Vec<f64>, Vec<f64>) = timed
        .segments
        .iter()
        .map(|s| (s.shots_per_s, s.latency_p99_ns / 1e3))
        .unzip();
    notes.push(format!(
        "{} segments over {:.2} s, {} latency samples; shots/s per segment {:.0?}; p99 us per segment {:.0?}; set-ups {setups:.3?} s",
        timed.segments.len(),
        timed.wall,
        timed.latency_samples,
        rates,
        p99s,
    ));
    let total = Tally::merged(timed.tallies);
    // Host slow states only ever add time, so throughput is the
    // faster quartile of segments; a segment's p99 is a tail already,
    // and their median spread least across runs (see README,
    // "Steadiness").
    let metrics = vec![
        quantile(&mut rates, 0.75),
        quantile(&mut p99s, 0.5),
        quantile(&mut setups, 0.5),
        peak_rss_mb,
    ];
    report(total.shots, violations, &END_TO_END, metrics, notes)
}

/// The set-up chain of one arm, run layer by layer with timers.
struct Layered {
    circuit: Circuit,
    decoder: AnyDecoder,
    schedule: Option<RoundSchedule>,
    seed: u64,
}

/// Set-up layer times (s) and sizes, summed over arms.
#[derive(Default)]
struct SetupLayers {
    circuit_s: f64,
    lower_s: f64,
    dem_s: f64,
    graph_s: f64,
    build_s: f64,
    mechanisms: usize,
    edges: usize,
}

/// The chain `EvalPipeline::build` runs, spelled out per layer.
fn prepare_layered(w: &Workload, seed: u64, layers: &mut SetupLayers) -> Vec<Layered> {
    let lap = |t: &mut Instant| {
        let now = Instant::now();
        let s = (now - *t).as_secs_f64();
        *t = now;
        s
    };
    w.arms
        .iter()
        .enumerate()
        .map(|(i, arm)| {
            let mut t = Instant::now();
            let schedule = arm.source.schedule();
            layers.circuit_s += lap(&mut t);
            let circuit =
                CircuitNoiseModel::standard(PHYSICAL_ERROR, arm.source.hardware()).apply(&schedule);
            layers.lower_s += lap(&mut t);
            let (dem, _) = DetectorErrorModel::from_circuit(&circuit, true);
            layers.dem_s += lap(&mut t);
            let graph = DecodingGraph::from_dem(&dem);
            layers.graph_s += lap(&mut t);
            layers.mechanisms += dem.mechanisms().len();
            layers.edges += graph.edges().len();
            let seed = arm_seed(seed, i);
            let decoder = w.decoder.build(&circuit, graph, seed);
            let schedule = w.stream.map(|_| RoundSchedule::from_circuit(&circuit));
            layers.build_s += lap(&mut t);
            Layered {
                circuit,
                decoder,
                schedule,
                seed,
            }
        })
        .collect()
}

fn run_traced(w: &Workload, o: &Options) -> Report {
    // Untraced pass: the library's own entry points over the run's shots.
    let prepared = prepare(w, o.seed);
    let decoders: Vec<_> = prepared
        .iter()
        .map(|p| under_test(p.pipeline.decoder(), o))
        .collect();
    let mut library = Timed::new(w.arms.len());
    library.run(w, o.seconds / 2.0, None, |i, chunk| {
        let p = &prepared[i];
        let (circuit, seed, decoder) = (
            p.pipeline.circuit(),
            p.pipeline.seed(),
            decoders[i].as_ref(),
        );
        let per_batch = match w.stream {
            Some(config) => count_batch_errors_streaming(circuit, &decoder, config, chunk, seed, 1),
            None => count_batch_errors(circuit, &decoder, chunk, seed, 1),
        };
        Tally::from_errors(per_batch, chunk)
    });
    let Timed {
        plans,
        tallies: untraced,
        wall: untraced_wall,
        ..
    } = library;
    // Traced pass: the same shots, layer by layer.
    let mut layers = SetupLayers::default();
    let layered = prepare_layered(w, o.seed, &mut layers);
    let traced_decoders: Vec<_> = layered.iter().map(|l| under_test(&l.decoder, o)).collect();
    let samples = Samples::default();
    let (traced, wall) = replay(&plans, |i, chunk| {
        let l = &layered[i];
        let decoder = traced_decoders[i].as_ref();
        match (w.stream, &l.schedule) {
            (Some(config), Some(schedule)) => stream_pass::<true>(
                &l.circuit, decoder, config, schedule, chunk, l.seed, &samples,
            ),
            _ => batch_pass(&l.circuit, decoder, chunk, l.seed, &samples),
        }
    });
    let mut violations = check(w, &prepared, &plans, &traced);
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        if u.errors != t.errors {
            violations.push(format!(
                "{}: traced failures {:?} differ from the library entry points' {:?}",
                w.arms[i].label, t.errors, u.errors
            ));
        }
    }
    let total = Tally::merged(traced.iter().cloned());
    let secs = |ns: u64| ns as f64 / 1e9;
    let share = |ns: u64| secs(ns) / wall;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let sample_ns = total.wall_ns.saturating_sub(total.closure_ns);
    let named = sample_ns
        + total.scan_ns
        + total.decode_ns
        + total.extract_ns
        + total.push_ns
        + total.finish_ns;
    // Per-call latencies are `decode_into` calls on batch workloads and
    // `push_round`/`flush_round` calls on streaming ones.
    let latency_us = |q| samples.latency_ns.quantile(q) / 1e3;
    let (decode_p50, decode_p99, round_p50) = if w.stream.is_some() {
        (0.0, 0.0, latency_us(0.50))
    } else {
        (latency_us(0.50), latency_us(0.99), 0.0)
    };
    let metrics = vec![
        secs(total.decode_ns),
        share(total.decode_ns),
        decode_p50,
        decode_p99,
        total.decode_calls as f64,
        per(total.decode_ns as f64, total.defects_decoded),
        layers.graph_s,
        layers.build_s,
        layers.edges as f64,
        samples.defects.quantile(0.50),
        samples.defects.quantile(0.99),
        per(total.over16 as f64, total.shots),
        secs(sample_ns),
        share(sample_ns),
        secs(total.scan_ns),
        secs(total.extract_ns),
        layers.dem_s,
        layers.mechanisms as f64,
        layers.circuit_s,
        layers.lower_s,
        secs(total.push_ns),
        share(total.push_ns),
        per(total.decode_calls as f64, total.rounds),
        per(total.round_defects as f64, total.rounds),
        per(total.boundary_defects as f64, total.commits),
        secs(total.finish_ns),
        round_p50,
        share(named),
        wall / untraced_wall - 1.0,
    ];
    let mut notes = summary(w, &traced, layered.iter().map(|l| &l.circuit));
    notes.push(format!(
        "traced {wall:.2} s vs library entry points {untraced_wall:.2} s over the same shots"
    ));
    report(total.shots, violations, &PER_LAYER, metrics, notes)
}

fn summary<'a>(
    w: &Workload,
    tallies: &[Tally],
    circuits: impl Iterator<Item = &'a Circuit>,
) -> Vec<String> {
    tallies
        .iter()
        .zip(&w.arms)
        .zip(circuits)
        .map(|((t, arm), circuit)| {
            format!(
                "{} {}: {} detectors, {} shots, failures {:?}",
                w.name,
                arm.label,
                circuit.num_detectors(),
                t.shots,
                t.errors
            )
        })
        .collect()
}

fn report(
    shots: u64,
    violations: Vec<String>,
    names: &[(&'static str, &'static str)],
    values: Vec<f64>,
    mut notes: Vec<String>,
) -> Report {
    assert_eq!(names.len(), values.len());
    let correct = violations.is_empty();
    notes.extend(violations.into_iter().map(|v| format!("CHECK FAILED: {v}")));
    Report {
        correct,
        attempted: shots,
        failed: if correct { 0 } else { shots },
        metrics: names
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit,
            })
            .collect(),
        notes,
    }
}

/// Quantile `q` of `xs`, interpolating linearly between the closest
/// ranks (`0` for no values).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB. Untraced
/// runs read it at the end of the timed phase, so it covers the
/// set-ups and every decode; the benchmark's own per-call samples live
/// in fixed-size histograms and do not grow with the run.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measures a workload's reference band with [`REFERENCE_SEED`]:
/// `shots` per arm on every available core, through the library entry
/// points (and, for streaming workloads, a per-shot fused-versus-batch
/// comparison). The counts do not depend on the number of workers.
/// Band edges are Wilson upper bounds at z = 3.
pub fn measure_check(w: &Workload, shots: u64) -> Check {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prepared = prepare(w, REFERENCE_SEED);
    let plan = batch_plan(shots, w.batch_shots);
    let upper = |k: u64| BinomialEstimate::new(k, shots).wilson_interval(3.0).1;
    match w.stream {
        None => Check::LerBelow(
            prepared
                .iter()
                .map(|p| {
                    let c = p.pipeline.circuit();
                    let per_batch = count_batch_errors(
                        c,
                        p.pipeline.decoder(),
                        &plan,
                        p.pipeline.seed(),
                        threads,
                    );
                    Tally::from_errors(per_batch, &plan)
                        .errors
                        .into_iter()
                        .map(upper)
                        .collect()
                })
                .collect(),
        ),
        Some(config) => {
            let p = &prepared[0];
            let (circuit, decoder) = (p.pipeline.circuit(), p.pipeline.decoder());
            let schedule = p
                .schedule
                .as_ref()
                .expect("streaming workloads keep a schedule");
            let num_obs = circuit.num_observables() as usize;
            // Per observable: [fused failures, batch failures, disagreements].
            let per_batch = parallel_batches_with(
                circuit,
                &plan,
                p.pipeline.seed(),
                threads,
                || {
                    (
                        config.build(decoder, schedule),
                        RoundStream::new(schedule),
                        DecoderScratch::for_decoder(decoder),
                        SyndromeScanner::new(),
                        Vec::new(),
                    )
                },
                |batch, (stream, rounds, scratch, scanner, defects)| {
                    let mut counts = vec![[0u64; 3]; num_obs];
                    rounds.begin_batch(batch);
                    scanner.begin_batch(batch);
                    for s in 0..batch.shots {
                        rounds.begin_shot(s);
                        stream.begin_shot();
                        while rounds.next_round_into(batch, defects).is_some() {
                            stream.push_round(defects);
                        }
                        let fused = stream.finish_shot();
                        scanner.flagged_into(batch, s, defects);
                        let mut batched = 0;
                        decoder.decode_into(scratch, defects, &mut batched);
                        for (o, c) in counts.iter_mut().enumerate() {
                            let actual = batch.observable(o, s);
                            let f = actual != ((fused >> o) & 1 == 1);
                            let b = actual != ((batched >> o) & 1 == 1);
                            c[0] += f as u64;
                            c[1] += b as u64;
                            c[2] += (f != b) as u64;
                        }
                    }
                    counts
                },
            );
            let mut totals = vec![[0u64; 3]; num_obs];
            for counts in per_batch {
                for (t, c) in totals.iter_mut().zip(counts) {
                    for k in 0..3 {
                        t[k] += c[k];
                    }
                }
            }
            let n = shots as f64;
            Check::FusedNear {
                excess: totals
                    .iter()
                    .map(|t| ((t[0] as f64 - t[1] as f64) + 3.0 * (t[2] as f64).sqrt()) / n)
                    .collect(),
                disagree: totals.iter().map(|t| upper(t[2])).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_tile_the_integers() {
        let mut next = 0;
        for i in 0..Histogram::default().counts.len() {
            let (lo, width) = Histogram::bucket(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(Histogram::index(lo), i);
            assert_eq!(Histogram::index(lo + (width - 1)), i);
            assert!(width == 1 || width * 64 <= lo, "bucket {i} too wide");
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn histogram_quantiles_are_exact_for_small_values_and_close_above() {
        let h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        let h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.99] {
            let exact = q * 1e6;
            assert!((h.quantile(q) - exact).abs() < exact / 64.0, "q {q}");
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        h.clear();
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut xs, 0.5), 3.0);
        assert_eq!(quantile(&mut xs, 0.25), 2.0);
        assert_eq!(quantile(&mut xs, 0.75), 4.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&mut [7.0], 0.25), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
