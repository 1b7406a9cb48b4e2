//! Windowed fusion: the frozen-prefix fusion state behind
//! [`StreamingMode::Fused`](crate::StreamingMode).
//!
//! True windowed fusion decodes only the *active* W-round detector
//! window. A window is a contiguous detector range `[dlo, dhi)` of the
//! shared [`DecodingGraph`](crate::DecodingGraph); there is no
//! materialized view and no per-decode copy. Graph decoders run on the
//! source graph through the range
//! ([`Decoder::decode_window_into`](crate::Decoder::decode_window_into)):
//! an edge whose far endpoint lies outside the range is a *cut edge*,
//! an artificial-boundary terminal that fusion stitches across. Per-round
//! decode cost is therefore O(window), independent of how long the
//! stream has been running — the property the paper's real-time decode
//! budget needs and the full-prefix exact mode cannot provide.
//!
//! Stitching is mask-only ("frozen-prefix telescoping"): when defects
//! scroll past the trailing window boundary they are *expelled* from
//! the active set, and the XOR difference between the window decode
//! with and without them is folded into a `frozen` prefix mask. The
//! running estimate is always `frozen ^ decode(active window)`, so
//! commit deltas telescope exactly like exact mode's — only the
//! estimate itself is approximate, because an expelled defect can no
//! longer re-pair with a defect that arrives later. The `overlap`
//! knob delays expulsion by that many rounds, trading window size for
//! accuracy; flush-path commits (end of shot) never expel, which is
//! what makes a window covering the whole shot degenerate to the batch
//! decode bit for bit.

use ftqc_sim::RoundSchedule;

/// Frozen-prefix fusion state for one streaming decoder.
///
/// Invariant: the current cumulative-correction estimate is
/// `frozen ^ decode(active defects on the current window)`. All
/// mutation happens through the streaming layer, which is responsible
/// for keeping `frozen` consistent when it expels defects (decode with
/// them, decode without them, XOR the difference in).
pub(crate) struct FusionCore {
    /// Rounds of context retained behind the newest committed round.
    pub(crate) overlap: u32,
    /// Per-detector round index (flattened from the schedule).
    round_of: Vec<u32>,
    /// Per-round global-detector envelope `[lo, hi)`.
    env: Vec<(u32, u32)>,
    num_rounds: u32,
    /// Detector range `[dlo, dhi)` of the next window decode (set by
    /// [`set_window`](FusionCore::set_window)).
    pub(crate) dlo: u32,
    pub(crate) dhi: u32,
    /// Cut edges of the last window a graph decoder decoded (kept
    /// across decodes that report none, e.g. table lookups).
    pub(crate) cut: u32,
    /// Retained (not yet expelled) defects, global ids, ascending.
    pub(crate) active: Vec<u32>,
    /// XOR contribution of every expelled defect prefix.
    pub(crate) frozen: u32,
    /// Oldest retained round (monotone non-decreasing).
    pub(crate) alo: u32,
    /// Memoized decode of the current (window, active) pair.
    pub(crate) cached: u32,
    pub(crate) cached_valid: bool,
}

impl FusionCore {
    pub(crate) fn new(overlap: u32, schedule: &RoundSchedule) -> FusionCore {
        // analyzer: allow(alloc) -- constructor: one-time flattening of
        // the round schedule and presizing of the defect buffers; the
        // push/slide/decode path reuses them allocation-free.
        let round_of: Vec<u32> = (0..schedule.num_detectors())
            .map(|d| schedule.round_of(d))
            .collect();
        let env: Vec<(u32, u32)> = (0..schedule.num_rounds())
            .map(|r| schedule.round_envelope(r))
            .collect();
        // analyzer: end-allow(alloc)
        FusionCore {
            overlap,
            round_of,
            env,
            num_rounds: schedule.num_rounds(),
            dlo: 0,
            dhi: 0,
            cut: 0,
            active: Vec::with_capacity(schedule.num_detectors() as usize),
            frozen: 0,
            alo: 0,
            cached: 0,
            cached_valid: false,
        }
    }

    /// Resets per-shot state (buffers keep their capacity).
    pub(crate) fn reset(&mut self) {
        self.active.clear();
        self.frozen = 0;
        self.alo = 0;
        self.cached_valid = false;
    }

    /// Absorbs one round's defects into the active set, keeping it
    /// sorted. Invalidates the decode memo whenever the next decode
    /// could differ (new defects, or an existing active set whose
    /// window grows with the push).
    pub(crate) fn push(&mut self, defects: &[u32]) {
        if defects.is_empty() {
            // An empty round still widens the window's round range; if
            // anything is active the next decode sees a larger window.
            if !self.active.is_empty() {
                self.cached_valid = false;
            }
            return;
        }
        let in_order = self.active.last().is_none_or(|&last| defects[0] > last);
        self.active.extend_from_slice(defects);
        if !in_order {
            self.active.sort_unstable();
        }
        self.cached_valid = false;
    }

    /// The round range the next window decode must cover: from the
    /// oldest retained round through the newest pushed round, widened
    /// (defensively) to span every active defect.
    fn decode_rounds(&self, pushed: u32) -> (u32, u32) {
        let mut rlo = self.alo;
        let mut rhi = pushed.min(self.num_rounds).max(rlo + 1);
        for &d in &self.active {
            let r = self.round_of[d as usize];
            rlo = rlo.min(r);
            rhi = rhi.max(r + 1);
        }
        (rlo, rhi)
    }

    /// Sets the detector range of the next window decode: the
    /// envelope of its rounds. Call with a non-empty active set.
    pub(crate) fn set_window(&mut self, pushed: u32) {
        debug_assert!(!self.active.is_empty());
        let (rlo, rhi) = self.decode_rounds(pushed);
        let mut dlo = u32::MAX;
        let mut dhi = 0;
        for r in rlo..rhi {
            let (lo, hi) = self.env[r as usize];
            dlo = dlo.min(lo);
            dhi = dhi.max(hi);
        }
        debug_assert!(self.active.iter().all(|&d| d >= dlo && d < dhi));
        self.dlo = dlo;
        self.dhi = dhi;
    }

    /// Advances the trailing window boundary to `new_alo`, expelling
    /// active defects from rounds before it. Returns the number of
    /// defects expelled; when it is non-zero the caller must fold the
    /// decode difference into `frozen`. A no-op (returning 0) when the
    /// boundary would not move forward.
    pub(crate) fn slide_to(&mut self, new_alo: u32) -> u32 {
        if new_alo <= self.alo {
            return 0;
        }
        let before = self.active.len();
        let round_of = &self.round_of;
        self.active.retain(|&d| round_of[d as usize] >= new_alo);
        self.alo = new_alo;
        self.cached_valid = false;
        (before - self.active.len()) as u32
    }

    /// Number of retained (active) defects.
    pub(crate) fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Active defects belonging to rounds older than `committed` — the
    /// cross-boundary context a fused commit carried forward.
    pub(crate) fn carried(&self, committed: u32) -> u32 {
        self.active
            .iter()
            .filter(|&&d| self.round_of[d as usize] < committed)
            .count() as u32
    }
}
