//! Structural coverage tracking for generated netlists — which shapes the
//! fuzzers have actually exercised — feeding a coverage-guided sampler.
//!
//! A [`NetRecipe`] is abstracted into discrete [`Bucket`]s: flip-flop
//! flavours hit (Fig. 3.1), region-count and shape buckets, feedback-edge
//! presence (the Fig. 2.6 worked example's distinguishing feature),
//! primary-input width and constants, plus the handshake-protocol
//! variants exercised by the STG-level mutations (Fig. 2.4). The guided
//! sampler draws several candidates and keeps the one hitting the most
//! *unseen* buckets, so small case budgets still cover the structural
//! grid instead of resampling the generator's most likely shapes.
//!
//! Feedback/cross-edge detection replays the pool-index arithmetic of
//! [`NetRecipe::build`] without building the module: an operand index is
//! a feedback edge iff it resolves to the `q` net of the same or a later
//! stage.

use std::collections::HashSet;

use drd_stg::protocols::Protocol;

use crate::netgen::{FfKind, NetGenParams, NetRecipe};
use crate::rng::Rng;

/// One structural coverage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// A flip-flop flavour appears in the netlist.
    FfKind(FfKind),
    /// Stage count, clamped to 3 ("3 or more").
    Stages(u8),
    /// Total register count: 1 → 1–2, 2 → 3–4, 3 → 5+.
    Width(u8),
    /// Largest per-stage cloud: 0 → empty, 1 → 1–3 gates, 2 → 4+.
    Cloud(u8),
    /// Primary-input bus width, clamped to 3 ("3 or more").
    Inputs(u8),
    /// Some cloud or flip-flop input resolves to a register of the same
    /// or a later stage (a sequential feedback edge).
    Feedback(bool),
    /// Some input resolves to a register of an *earlier* stage other than
    /// the immediately preceding one (a forward skip edge).
    SkipEdge(bool),
    /// The constant `din` word is all zeros.
    ConstZero(bool),
    /// A Fig. 2.4 handshake-protocol variant was exercised (recorded by
    /// the STG-level mutation harness, not derivable from a recipe).
    Protocol(Protocol),
}

/// The structural features of one recipe, before bucketing.
#[derive(Debug, Clone)]
pub struct RecipeFeatures {
    /// Flip-flop flavours present.
    pub ff_kinds: Vec<FfKind>,
    /// Stage count.
    pub stages: usize,
    /// Total register lanes.
    pub width: usize,
    /// Largest per-stage cloud.
    pub max_cloud: usize,
    /// Primary-input bus width.
    pub inputs: usize,
    /// Any same-or-later-stage register reference.
    pub has_feedback: bool,
    /// Any reference skipping backwards over more than one stage.
    pub has_skip_edge: bool,
    /// All-zero input constants.
    pub const_zero: bool,
}

impl RecipeFeatures {
    /// Extracts the features of `recipe` by replaying the build-time pool
    /// arithmetic.
    pub fn of(recipe: &NetRecipe) -> RecipeFeatures {
        let inputs = recipe.inputs.max(1);
        let widths: Vec<usize> = recipe.stages.iter().map(|s| s.ffs.len()).collect();
        // Pool layout of `NetRecipe::build`: din bits, then every stage's
        // q nets in stage order.
        let mut q_start = vec![0usize; widths.len()];
        let mut acc = inputs;
        for (s, w) in widths.iter().enumerate() {
            q_start[s] = acc;
            acc += w;
        }
        let pool_len = acc;
        // Which stage owns pool index `i`, if any.
        let stage_of = |i: usize| -> Option<usize> {
            (i >= inputs).then(|| {
                q_start
                    .iter()
                    .rposition(|&start| start <= i)
                    .expect("pool index past inputs lands in a stage")
            })
        };

        let mut has_feedback = false;
        let mut has_skip_edge = false;
        let mut ff_kinds = Vec::new();
        for (s, stage) in recipe.stages.iter().enumerate() {
            let mut classify = |idx: usize, local_len: usize| {
                // Cloud nets (indices past the shared pool) are local and
                // combinational — never feedback.
                if let Some(t) = stage_of(idx % local_len).filter(|_| idx % local_len < pool_len) {
                    if t >= s {
                        has_feedback = true;
                    } else if s - t > 1 {
                        has_skip_edge = true;
                    }
                }
            };
            for (c, op) in stage.cloud.iter().enumerate() {
                let local_len = pool_len + c;
                classify(op.a, local_len);
                if gate_is_two_input(op.kind) {
                    classify(op.b, local_len);
                }
            }
            let local_len = pool_len + stage.cloud.len();
            for ff in &stage.ffs {
                classify(ff.d, local_len);
                match ff.kind {
                    FfKind::Plain => {}
                    FfKind::SyncReset | FfKind::SyncSet => classify(ff.aux0, local_len),
                    FfKind::Scan => {
                        classify(ff.aux0, local_len);
                        classify(ff.aux1, local_len);
                    }
                }
                if !ff_kinds.contains(&ff.kind) {
                    ff_kinds.push(ff.kind);
                }
            }
        }

        RecipeFeatures {
            ff_kinds,
            stages: recipe.stages.len(),
            width: widths.iter().sum(),
            max_cloud: recipe
                .stages
                .iter()
                .map(|s| s.cloud.len())
                .max()
                .unwrap_or(0),
            inputs,
            has_feedback,
            has_skip_edge,
            const_zero: recipe.input_bits & ((1u64 << inputs.min(63)) - 1) == 0,
        }
    }

    /// The coverage points this recipe hits.
    pub fn buckets(&self) -> Vec<Bucket> {
        let mut out: Vec<Bucket> = self.ff_kinds.iter().map(|&k| Bucket::FfKind(k)).collect();
        out.push(Bucket::Stages(self.stages.min(3) as u8));
        out.push(Bucket::Width(match self.width {
            0..=2 => 1,
            3..=4 => 2,
            _ => 3,
        }));
        out.push(Bucket::Cloud(match self.max_cloud {
            0 => 0,
            1..=3 => 1,
            _ => 2,
        }));
        out.push(Bucket::Inputs(self.inputs.min(3) as u8));
        out.push(Bucket::Feedback(self.has_feedback));
        out.push(Bucket::SkipEdge(self.has_skip_edge));
        out.push(Bucket::ConstZero(self.const_zero));
        out
    }
}

/// Mirror of the `GATES` table in [`crate::netgen`]: which gate selectors
/// decode to two-input cells (`kind % 8`, indices 2..=7).
fn gate_is_two_input(kind: u8) -> bool {
    kind % 8 >= 2
}

/// Accumulated structural coverage across a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    seen: HashSet<Bucket>,
}

impl Coverage {
    /// An empty coverage map.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Buckets seen so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// True when `bucket` has been hit.
    pub fn contains(&self, bucket: Bucket) -> bool {
        self.seen.contains(&bucket)
    }

    /// Records one explicit coverage point (e.g. a protocol variant).
    /// Returns true if it was new.
    pub fn record_bucket(&mut self, bucket: Bucket) -> bool {
        self.seen.insert(bucket)
    }

    /// Records every bucket of `recipe`; returns how many were new.
    pub fn record(&mut self, recipe: &NetRecipe) -> usize {
        RecipeFeatures::of(recipe)
            .buckets()
            .into_iter()
            .filter(|&b| self.seen.insert(b))
            .count()
    }

    /// How many of `recipe`'s buckets are unseen (the guided sampler's
    /// score).
    pub fn unseen(&self, recipe: &NetRecipe) -> usize {
        RecipeFeatures::of(recipe)
            .buckets()
            .into_iter()
            .filter(|b| !self.seen.contains(b))
            .count()
    }

    /// A sorted, human-readable dump of the seen buckets.
    pub fn describe(&self) -> Vec<String> {
        let mut v: Vec<String> = self.seen.iter().map(|b| format!("{b:?}")).collect();
        v.sort();
        v
    }
}

/// Coverage-guided sampling: draws up to `tries` candidate recipes from
/// `rng` and returns the first one maximizing unseen-bucket count (the
/// draw is recorded). With everything already covered this degenerates to
/// plain [`NetRecipe::sample`] — no bias once the grid is saturated.
pub fn sample_guided(
    rng: &mut Rng,
    params: &NetGenParams,
    coverage: &mut Coverage,
    tries: usize,
) -> NetRecipe {
    let mut best = NetRecipe::sample(rng, params);
    let mut best_score = coverage.unseen(&best);
    for _ in 1..tries.max(1) {
        if best_score == 0 && !coverage.is_empty() {
            break;
        }
        let cand = NetRecipe::sample(rng, params);
        let score = coverage.unseen(&cand);
        if score > best_score {
            best = cand;
            best_score = score;
        }
    }
    coverage.record(&best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_deterministic_and_bucketable() {
        let mut rng = Rng::new(0xC0FE);
        let params = NetGenParams::default();
        for _ in 0..50 {
            let r = NetRecipe::sample(&mut rng, &params);
            let a = RecipeFeatures::of(&r);
            let b = RecipeFeatures::of(&r);
            assert_eq!(a.buckets(), b.buckets());
            assert!(!a.buckets().is_empty());
            assert_eq!(a.stages, r.stages.len());
        }
    }

    #[test]
    fn guided_sampling_covers_the_grid_faster() {
        let params = NetGenParams::default();
        let runs = 30usize;
        let mut plain = Coverage::new();
        let mut rng = Rng::new(7);
        for _ in 0..runs {
            let r = NetRecipe::sample(&mut rng, &params);
            plain.record(&r);
        }
        let mut guided = Coverage::new();
        let mut rng = Rng::new(7);
        for _ in 0..runs {
            sample_guided(&mut rng, &params, &mut guided, 8);
        }
        assert!(
            guided.len() >= plain.len(),
            "guided {} < plain {}",
            guided.len(),
            plain.len()
        );
        // The guided run must reach every FF flavour within the budget.
        for k in [
            FfKind::Plain,
            FfKind::SyncReset,
            FfKind::SyncSet,
            FfKind::Scan,
        ] {
            assert!(guided.contains(Bucket::FfKind(k)), "{k:?} uncovered");
        }
    }

    #[test]
    fn feedback_detection_matches_a_known_recipe() {
        use crate::netgen::{FfRecipe, StageRecipe};
        // One input, one stage, one FF whose D is index 1 → the stage's
        // own q net → feedback.
        let fb = NetRecipe {
            inputs: 1,
            input_bits: 0,
            stages: vec![StageRecipe {
                cloud: vec![],
                ffs: vec![FfRecipe {
                    kind: FfKind::Plain,
                    d: 1,
                    aux0: 0,
                    aux1: 0,
                }],
            }],
        };
        assert!(RecipeFeatures::of(&fb).has_feedback);
        // D tied to the primary input → no feedback.
        let ff = NetRecipe {
            inputs: 1,
            input_bits: 0,
            stages: vec![StageRecipe {
                cloud: vec![],
                ffs: vec![FfRecipe {
                    kind: FfKind::Plain,
                    d: 0,
                    aux0: 0,
                    aux1: 0,
                }],
            }],
        };
        assert!(!RecipeFeatures::of(&ff).has_feedback);
        let f = RecipeFeatures::of(&ff);
        assert!(f.const_zero);
        assert_eq!(f.width, 1);
    }

    #[test]
    fn protocol_buckets_are_recordable() {
        let mut cov = Coverage::new();
        assert!(cov.record_bucket(Bucket::Protocol(Protocol::SemiDecoupled)));
        assert!(!cov.record_bucket(Bucket::Protocol(Protocol::SemiDecoupled)));
        assert!(cov.record_bucket(Bucket::Protocol(Protocol::FallDecoupled)));
        assert_eq!(cov.len(), 2);
        assert!(cov.describe().iter().any(|s| s.contains("SemiDecoupled")));
    }
}
