//! Planning: the QoS-Resource Graph of one session under one
//! availability snapshot (§4.1.1), and the planners run over it (§4.1.2).
//!
//! A broker plans the same few service specs against a fresh snapshot on
//! every `establish`/`replan`, so a [`PlanCtx`] holds the graph split by
//! lifetime:
//!
//! * **Per service spec** (built once per context, kept): the
//!   [`QrgSkeleton`] — node layout, candidate edges, adjacency,
//!   relaxation order; see its module docs. A context keeps the skeleton
//!   of every spec it has planned until no session of that spec is left.
//! * **Per snapshot** (recomputed in [`PlanCtx::prepare`], or repaired by
//!   [`PlanCtx::prepare_delta`]; zero allocations in steady state): each
//!   candidate edge's scaled canonical demand, feasibility, weight Ψ, and
//!   bottleneck, stored in flat reusable buffers. A translation candidate
//!   is a QRG edge iff its demand fits the snapshot.
//! * **Per run** (reused): the relax/backtrack/assembly scratch.
//!
//! [`PlanCtx::plan`] runs any [`Planner`] over that state; the Pass-I
//! result and the graph itself can be read back through
//! [`PlanCtx::minimax`] and [`PlanCtx::to_dot`].
//!
//! ```
//! use std::sync::Arc;
//! use qosr_model::*;
//! use qosr_core::*;
//! use rand::SeedableRng;
//!
//! let schema = QosSchema::new("q", ["level"]);
//! let lv = |v: u32| QosVector::new(schema.clone(), [v]);
//! let comp = ComponentSpec::new(
//!     "encoder",
//!     vec![lv(0)],
//!     vec![lv(1), lv(2)],
//!     vec![SlotSpec::new("cpu", ResourceKind::Compute)],
//!     Arc::new(TableTranslation::builder(1, 2, 1)
//!         .entry(0, 0, [10.0])
//!         .entry(0, 1, [80.0])
//!         .build()),
//! );
//! let service = Arc::new(ServiceSpec::chain("svc", vec![comp], vec![1, 2]).unwrap());
//! let mut space = ResourceSpace::new();
//! let cpu = space.register("H1.cpu", ResourceKind::Compute);
//! let session = SessionInstance::new(
//!     service, vec![ComponentBinding::new([cpu])], 1.0).unwrap();
//!
//! let mut ctx = PlanCtx::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! for avail in [100.0, 50.0, 12.0] {
//!     let mut view = AvailabilityView::new();
//!     view.set(cpu, avail);
//!     // Re-prepares against the new snapshot; the skeleton is reused.
//!     ctx.prepare(&session, &view, &QrgOptions::default());
//!     let plan = ctx.plan(Planner::Basic, &mut rng).unwrap();
//!     assert_eq!(plan.sink_level, usize::from(avail >= 80.0));
//! }
//! ```

use crate::delta::{diff_views, DeltaConfig, FullReason, RelaxCache, RepairOutcome, RepairStats};
use crate::planner::{ensure_chain, finish_minimax, finish_random, finish_tradeoff};
use crate::relax::{relax_into, relax_repair};
use crate::skeleton::QrgSkeleton;
use crate::snapshot::EpochSnapshot;
use crate::view::{CtxView, PlanScratch};
use crate::{AvailabilityView, NodeRef, PlanError, Planner, PsiDef, ReservationPlan};
use qosr_model::{ResourceId, ServiceSpec, SessionInstance};
use rand::Rng;
use std::sync::Arc;

/// Options controlling QRG construction and plan selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QrgOptions {
    /// Per-resource contention-index definition (default: the paper's
    /// `req/avail`).
    pub psi: PsiDef,
    /// Disable the paper's tie-breaking rule (choose-min-incoming-weight
    /// among equal minimax values) — for ablation only. `false` = rule
    /// active (the default, as in the paper).
    pub disable_tie_break: bool,
}

/// The bottleneck of a translation candidate: the resource attaining the
/// maximum per-resource contention index, with its ψ and availability
/// trend α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EdgeBottleneck {
    /// The bottleneck resource.
    pub resource: ResourceId,
    /// Its contention index ψ (eq. 2).
    pub psi: f64,
    /// Its availability-change index α (eq. 5) at snapshot time.
    pub alpha: f64,
}

/// Reusable planning context: the [`QrgSkeleton`] of every service spec
/// it has planned plus flat per-call buffers. Call [`PlanCtx::prepare`]
/// with a session and an availability snapshot, then [`PlanCtx::plan`]
/// (any number of times). After warm-up, neither step allocates.
///
/// For snapshot sequences, [`PlanCtx::prepare_delta`] /
/// [`PlanCtx::prepare_epoch`] are the incremental alternative to
/// [`PlanCtx::prepare`]: they diff the new view against the previous one
/// and *repair* the prepared weights and relaxation in place (see the
/// `delta` module docs), which is what the batched admission pipeline
/// rides in steady state.
#[derive(Debug, Default)]
pub struct PlanCtx {
    /// The skeleton of the prepared session's spec (one of `skeletons`).
    skeleton: Option<Arc<QrgSkeleton>>,
    /// One skeleton per spec this context has planned, in first-planned
    /// order, looked up by [`ServiceSpec::uid`].
    skeletons: Vec<Arc<QrgSkeleton>>,
    options: QrgOptions,
    /// Canonical scaled demand segment of candidate `e`:
    /// `demand_buf[demand_off[e] .. demand_off[e + 1]]`, sorted by
    /// resource id, duplicates summed, zeros dropped — the
    /// [`ResourceVector`] invariants, flattened.
    demand_off: Vec<u32>,
    demand_buf: Vec<(ResourceId, f64)>,
    /// Weight Ψ per candidate; `f64::INFINITY` marks an infeasible
    /// candidate (feasible ψ values are clamped to [`PsiDef::CLAMP`]).
    weight: Vec<f64>,
    bottleneck: Vec<Option<EdgeBottleneck>>,
    /// Pass-I buffers (`scratch.dist`/`scratch.pred`) and the exclusive
    /// Pass-II workspace. When `relaxed` is set, the Pass-I buffers hold
    /// the relaxation of the current `weight` buffer and planners reuse
    /// it instead of resweeping.
    scratch: PlanScratch,
    relaxed: bool,
    /// Delta-repair state: the effective view the buffers were computed
    /// against, fingerprint, inverted index, and repair scratch.
    cache: RelaxCache,
    /// Per-candidate staging buffer for demand canonicalization.
    stage: Vec<(ResourceId, f64)>,
}

/// One candidate's feasibility, weight, and bottleneck under `view` —
/// the per-candidate computation shared by the full prepare and the
/// delta repair, so both fill the buffers bit-identically.
fn eval_candidate(
    seg: &[(ResourceId, f64)],
    view: &AvailabilityView,
    options: &QrgOptions,
) -> (f64, Option<EdgeBottleneck>) {
    if !seg.iter().all(|&(rid, req)| req <= view.avail(rid)) {
        // Diagnostic only: remember which resource overshoots the most
        // (raw req/avail ratio, > 1 by construction) so rejections can
        // name their blocking resource. Planners never read bottlenecks
        // of infeasible candidates, so plans are unaffected.
        let mut worst = 0.0f64;
        let mut bottleneck = None;
        for &(rid, req) in seg {
            let avail = view.avail(rid);
            let ratio = if avail > 0.0 {
                (req / avail).min(PsiDef::CLAMP)
            } else {
                PsiDef::CLAMP
            };
            if bottleneck.is_none() || ratio > worst {
                worst = ratio;
                bottleneck = Some(EdgeBottleneck {
                    resource: rid,
                    psi: ratio,
                    alpha: view.alpha(rid),
                });
            }
        }
        return (f64::INFINITY, bottleneck);
    }
    let mut weight = 0.0f64;
    let mut bottleneck = None;
    for &(rid, req) in seg {
        let psi = options.psi.psi(req, view.avail(rid));
        if bottleneck.is_none() || psi > weight {
            weight = psi;
            bottleneck = Some(EdgeBottleneck {
                resource: rid,
                psi,
                alpha: view.alpha(rid),
            });
        }
    }
    (weight, bottleneck)
}

impl PlanCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the context for planning `session` under the availability
    /// snapshot `view` — step (1) of the runtime algorithm (§4.1.1). The
    /// session's service skeleton is the one this context built the
    /// first time it planned that spec; demands, feasibility, weights and
    /// bottlenecks are recomputed into reusable buffers.
    ///
    /// This is the *full* path: it always rebuilds every candidate and
    /// defers Pass I to the next [`PlanCtx::plan`] call. Use
    /// [`PlanCtx::prepare_delta`] / [`PlanCtx::prepare_epoch`] to repair
    /// the previous state incrementally instead.
    pub fn prepare(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
    ) {
        self.cache.invalidate();
        self.relaxed = false;
        self.prepare_full(session, view, options);
    }

    fn prepare_full(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
    ) {
        let sk = match &self.skeleton {
            Some(sk) if sk.service().uid() == session.service().uid() => sk.clone(),
            _ => {
                let sk = self.skeleton_of(session.service());
                self.skeleton = Some(sk.clone());
                sk
            }
        };
        self.options = options.clone();

        let scale = session.scale();
        let bindings = session.bindings();
        let n = sk.n_candidates();

        // 1. Bind, scale, and canonicalize each candidate's demand.
        self.demand_off.clear();
        self.demand_off.reserve(n + 1);
        self.demand_off.push(0);
        self.demand_buf.clear();
        for e in 0..n {
            if let Some((c, _, _)) = sk.candidates[e].pair {
                let resources = bindings[c as usize].resources();
                self.stage.clear();
                self.stage.extend(
                    sk.slot_demand(e as u32)
                        .iter()
                        .map(|&(slot, amount)| (resources[slot as usize], amount * scale)),
                );
                self.stage.sort_unstable_by_key(|&(rid, _)| rid);
                // Merge duplicates, drop zeros (ResourceVector::from_pairs
                // semantics).
                let seg_start = self.demand_buf.len();
                for &(rid, amount) in &self.stage {
                    let merge = self.demand_buf.len() > seg_start
                        && self.demand_buf.last().is_some_and(|&(last, _)| last == rid);
                    if merge {
                        self.demand_buf.last_mut().unwrap().1 += amount;
                    } else {
                        self.demand_buf.push((rid, amount));
                    }
                }
                let mut w = seg_start;
                for r in seg_start..self.demand_buf.len() {
                    if self.demand_buf[r].1 > 0.0 {
                        self.demand_buf[w] = self.demand_buf[r];
                        w += 1;
                    }
                }
                self.demand_buf.truncate(w);
            }
            self.demand_off
                .push(u32::try_from(self.demand_buf.len()).expect("QRG too large"));
        }

        // 2. Feasibility, weight, and bottleneck per candidate: the edge
        // exists iff R^req <= R^avail element-wise; its weight is the
        // max ψ over the demand (eqs. 2–3).
        self.weight.clear();
        self.weight.resize(n, 0.0);
        self.bottleneck.clear();
        self.bottleneck.resize(n, None);
        for e in 0..n {
            if sk.candidates[e].pair.is_none() {
                continue; // equivalence: weight 0, always feasible
            }
            let seg =
                &self.demand_buf[self.demand_off[e] as usize..self.demand_off[e + 1] as usize];
            let (w, b) = eval_candidate(seg, view, options);
            self.weight[e] = w;
            self.bottleneck[e] = b;
        }
    }

    /// The skeleton of `service` from this context's set, built on first
    /// encounter. Before a build, every skeleton whose spec only the
    /// skeleton itself still holds is dropped: no session of that spec
    /// is left to plan.
    fn skeleton_of(&mut self, service: &Arc<ServiceSpec>) -> Arc<QrgSkeleton> {
        let counters = qosr_obs::Counters::global();
        let uid = service.uid();
        if let Some(sk) = self.skeletons.iter().find(|sk| sk.service().uid() == uid) {
            counters.record_skeleton_hit();
            return sk.clone();
        }
        counters.record_skeleton_miss();
        self.skeletons
            .retain(|sk| Arc::strong_count(sk.service()) > 1);
        let sk = Arc::new(QrgSkeleton::build(service.clone()));
        self.skeletons.push(sk.clone());
        sk
    }

    /// Incremental prepare against an arbitrary availability view (e.g.
    /// the commit phase's debited *working* view): diffs `view` against
    /// the effective view the buffers were last computed against and
    /// repairs only the candidates (and relaxation nodes) downstream of
    /// resources that moved past the quantization threshold. Falls back
    /// to a full [`PlanCtx::prepare`]-equivalent rebuild when the cache
    /// is cold, the session or options changed, or the delta is too
    /// large (see [`DeltaConfig`]).
    ///
    /// With the default zero threshold, the resulting state — weights,
    /// bottlenecks, and Pass-I distances — is **bit-identical** to a
    /// full prepare, so subsequent plans are byte-identical too.
    pub fn prepare_delta(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
    ) -> RepairOutcome {
        self.prepare_delta_inner(session, view, options, None)
    }

    /// [`PlanCtx::prepare_delta`] for an [`EpochSnapshot`]: additionally
    /// keys on the snapshot's generation token, so re-preparing against
    /// the *same* snapshot (every same-shaped request of a batch round)
    /// is a token-compare no-op with no view diff at all.
    pub fn prepare_epoch(
        &mut self,
        session: &SessionInstance,
        snapshot: &EpochSnapshot,
        options: &QrgOptions,
    ) -> RepairOutcome {
        self.prepare_delta_inner(
            session,
            snapshot.view(),
            options,
            Some(snapshot.generation()),
        )
    }

    fn prepare_delta_inner(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
        token: Option<u64>,
    ) -> RepairOutcome {
        let full_reason = if !self.cache.valid {
            Some(FullReason::ColdCache)
        } else if !self.cache.matches_session(session) {
            Some(FullReason::SessionChanged)
        } else if self.options != *options {
            Some(FullReason::OptionsChanged)
        } else {
            None
        };
        if let Some(reason) = full_reason {
            self.install_full(session, view, options, token);
            return RepairOutcome::Full(reason);
        }

        // Same snapshot as the buffers were prepared against: nothing
        // can have moved (tokens are process-unique per snapshot).
        if token.is_some() && token == self.cache.token {
            return RepairOutcome::Repaired(RepairStats::default());
        }

        // Diff the incoming view against the cache's *effective* view
        // under the ψ-quantization threshold.
        diff_views(
            &self.cache.view,
            view,
            self.cache.config.psi_threshold,
            &mut self.cache.pending,
        );
        self.cache.token = token;
        if self.cache.pending.is_empty() {
            return RepairOutcome::Repaired(RepairStats::default());
        }

        let sk = self
            .skeleton
            .clone()
            .expect("a valid RelaxCache implies a prepared skeleton");
        let n_cands = sk.n_candidates();

        // Seed: every candidate demanding a changed resource, deduped
        // into a compact worklist so the re-evaluation below touches
        // only dirty candidates instead of scanning the flag array.
        self.cache.cand_seen.clear();
        self.cache.cand_seen.resize(n_cands, false);
        self.cache.dirty_cands.clear();
        for i in 0..self.cache.pending.len() {
            let rid = self.cache.pending[i].0;
            if let Ok(p) = self.cache.idx_rids.binary_search(&rid) {
                let lo = self.cache.idx_start[p] as usize;
                let hi = self.cache.idx_start[p + 1] as usize;
                for k in lo..hi {
                    let e = self.cache.idx_cands[k];
                    if !self.cache.cand_seen[e as usize] {
                        self.cache.cand_seen[e as usize] = true;
                        self.cache.dirty_cands.push(e);
                    }
                }
            }
        }
        let dirty = self.cache.dirty_cands.len();
        if dirty as f64 > self.cache.config.max_dirty_fraction * n_cands as f64 {
            self.install_full(session, view, options, token);
            return RepairOutcome::Full(FullReason::DeltaTooLarge);
        }

        // Apply the delta to the effective view, then re-evaluate the
        // dirty candidates against it — the same per-candidate function
        // the full prepare runs, so repaired buffers match it bitwise.
        let resources_changed = self.cache.pending.len();
        for i in 0..resources_changed {
            let (rid, avail, alpha) = self.cache.pending[i];
            self.cache.view.set_with_alpha(rid, avail, alpha);
        }
        self.cache.dirty_nodes.clear();
        self.cache.dirty_nodes.resize(sk.n_nodes(), false);
        for k in 0..dirty {
            let e = self.cache.dirty_cands[k] as usize;
            let seg =
                &self.demand_buf[self.demand_off[e] as usize..self.demand_off[e + 1] as usize];
            let (w, b) = eval_candidate(seg, &self.cache.view, &self.options);
            // Only an actual weight move can shift the relaxation;
            // bottleneck-only changes (e.g. α drift) don't propagate.
            if w.to_bits() != self.weight[e].to_bits() {
                self.cache.dirty_nodes[sk.candidates[e].to as usize] = true;
            }
            self.weight[e] = w;
            self.bottleneck[e] = b;
        }
        let reevaluated = dirty;

        // Repair Pass I downstream of the re-weighted nodes.
        let nodes_recomputed = if self.relaxed {
            let view = CtxView {
                sk: &sk,
                options: &self.options,
                demand_off: &self.demand_off,
                demand_buf: &self.demand_buf,
                weight: &self.weight,
                bottleneck: &self.bottleneck,
            };
            relax_repair(
                &view,
                &mut self.scratch.dist,
                &mut self.scratch.pred,
                &self.cache.dirty_nodes,
                &mut self.cache.moved_nodes,
            )
        } else {
            // A valid cache is always installed with an eager
            // relaxation; stay correct if that invariant ever bends.
            self.relax_now();
            sk.n_nodes()
        };

        RepairOutcome::Repaired(RepairStats {
            resources_changed,
            candidates_reevaluated: reevaluated,
            nodes_recomputed,
        })
    }

    /// Full rebuild + eager relaxation + cache (re)install — the
    /// fallback body of the delta path.
    fn install_full(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
        token: Option<u64>,
    ) {
        self.prepare_full(session, view, options);
        self.relax_now();
        self.cache.install(session, view, token);
        RelaxCache::rebuild_index(&mut self.cache, &self.demand_off, &self.demand_buf);
    }

    /// Runs Pass I over the current buffers into the context's own
    /// relax buffers and marks them valid.
    fn relax_now(&mut self) {
        let sk = self
            .skeleton
            .clone()
            .expect("Pass I requested before PlanCtx::prepare");
        let view = CtxView {
            sk: &sk,
            options: &self.options,
            demand_off: &self.demand_off,
            demand_buf: &self.demand_buf,
            weight: &self.weight,
            bottleneck: &self.bottleneck,
        };
        relax_into(&view, &mut self.scratch.dist, &mut self.scratch.pred);
        self.relaxed = true;
    }

    /// Runs `planner` against the prepared snapshot. `rng` is only
    /// consulted by [`Planner::Random`]. May be called repeatedly between
    /// `prepare` calls; Pass I runs at most once per prepared state (the
    /// delta path usually has it repaired already).
    ///
    /// # Panics
    /// Panics if [`PlanCtx::prepare`] has never been called.
    pub fn plan(
        &mut self,
        planner: Planner,
        rng: &mut impl Rng,
    ) -> Result<ReservationPlan, PlanError> {
        let sk = self
            .skeleton
            .as_ref()
            .expect("PlanCtx::plan called before PlanCtx::prepare");
        let view = CtxView {
            sk,
            options: &self.options,
            demand_off: &self.demand_off,
            demand_buf: &self.demand_buf,
            weight: &self.weight,
            bottleneck: &self.bottleneck,
        };
        // The chain check precedes any Pass-I work.
        if matches!(planner, Planner::Basic | Planner::Random) {
            ensure_chain(&view)?;
        }
        if !self.relaxed {
            relax_into(&view, &mut self.scratch.dist, &mut self.scratch.pred);
            self.relaxed = true;
        }
        let work = &mut self.scratch.work;
        match planner {
            Planner::Basic | Planner::Dag => {
                finish_minimax(&view, &self.scratch.dist, &self.scratch.pred, work)
            }
            Planner::Tradeoff => {
                finish_tradeoff(&view, &self.scratch.dist, &self.scratch.pred, work)
            }
            Planner::Random => finish_random(&view, &self.scratch.dist, work, rng),
        }
    }

    /// One-shot convenience: [`PlanCtx::prepare`] + [`PlanCtx::plan`].
    pub fn plan_session(
        &mut self,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
        planner: Planner,
        rng: &mut impl Rng,
    ) -> Result<ReservationPlan, PlanError> {
        self.prepare(session, view, options);
        self.plan(planner, rng)
    }

    /// Every translation candidate's evaluation under the last
    /// [`PlanCtx::prepare`] snapshot, in construction order. Empty before
    /// the first `prepare`. This is the observability read-out backing
    /// `CandidateEvaluated` trace events.
    pub fn candidates(&self) -> impl Iterator<Item = CandidateEval> + '_ {
        let sk = self.skeleton.as_deref();
        let n = sk.map_or(0, |sk| sk.n_candidates());
        (0..n).filter_map(move |e| self.eval_of(sk?, e))
    }

    /// The evaluation of translation cell `(c, i, j)` under the last
    /// snapshot, if that cell is populated.
    pub fn candidate(&self, c: usize, i: usize, j: usize) -> Option<CandidateEval> {
        let sk = self.skeleton.as_deref()?;
        let e = sk.pair_candidate(c, i, j)?;
        self.eval_of(sk, e as usize)
    }

    fn eval_of(&self, sk: &QrgSkeleton, e: usize) -> Option<CandidateEval> {
        let (c, i, j) = sk.candidates[e].pair?;
        let w = self.weight[e];
        let b = self.bottleneck[e];
        Some(CandidateEval {
            component: c,
            qin: i,
            qout: j,
            feasible: w.is_finite(),
            psi: if w.is_finite() {
                w
            } else {
                b.map_or(f64::INFINITY, |b| b.psi)
            },
            resource: b.map(|b| b.resource),
            alpha: b.map(|b| b.alpha),
        })
    }

    /// `(from_rank, to_rank)` when the last [`PlanCtx::plan`] run took an
    /// α-tradeoff step down (§4.3.1), `None` otherwise.
    pub fn last_downgrade(&self) -> Option<(u32, u32)> {
        self.scratch.work.downgrade
    }

    /// The current Pass-I result `(dist, pred)`, when one is held (after
    /// a delta-path prepare or the first [`PlanCtx::plan`]). Exposed for
    /// the repaired-≡-full equivalence tests.
    pub fn relaxation(&self) -> Option<(&[f64], &[Option<u32>])> {
        self.relaxed
            .then(|| (&self.scratch.dist[..], &self.scratch.pred[..]))
    }

    /// Pass I's read-out for `node` under the prepared snapshot: its
    /// minimax ψ from the source (`f64::INFINITY` when unreachable) and,
    /// for a `Q^out` node, the `Q^in` level of the translation candidate
    /// Pass I chose into it. Runs Pass I first when no relaxation of the
    /// prepared state is held yet.
    ///
    /// # Panics
    /// Panics if [`PlanCtx::prepare`] has never been called.
    pub fn minimax(&mut self, node: NodeRef) -> (f64, Option<usize>) {
        if !self.relaxed {
            self.relax_now();
        }
        let sk = self.skeleton.as_deref().expect("relaxed implies prepared");
        let n = match node {
            NodeRef::In { component, level } => sk.in_offset[component] + level,
            NodeRef::Out { component, level } => sk.out_offset[component] + level,
        };
        let qin = self.scratch.pred[n]
            .and_then(|e| sk.candidates[e as usize].pair)
            .map(|(_, i, _)| i as usize);
        (self.scratch.dist[n], qin)
    }

    /// Renders the prepared snapshot's QRG in Graphviz DOT format: one
    /// cluster per service component, a solid edge labelled with its
    /// weight Ψ per feasible translation candidate, a dashed edge per
    /// `Q^out` → `Q^in` equivalence — the layout of the paper's figures
    /// 4–5. Nodes are numbered as in the skeleton.
    ///
    /// # Panics
    /// Panics if [`PlanCtx::prepare`] has never been called.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let sk = self
            .skeleton
            .as_deref()
            .expect("PlanCtx::to_dot called before PlanCtx::prepare");
        let mut out =
            String::from("digraph qrg {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n");
        for (c, comp) in sk.service().components().iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{c} {{");
            let _ = writeln!(out, "    label=\"{}\";", comp.name());
            let _ = writeln!(out, "    style=dashed;");
            for (i, lvl) in comp.input_levels().iter().enumerate() {
                let _ = writeln!(out, "    n{} [label=\"in {lvl}\"];", sk.in_offset[c] + i);
            }
            for (j, lvl) in comp.output_levels().iter().enumerate() {
                let _ = writeln!(out, "    n{} [label=\"out {lvl}\"];", sk.out_offset[c] + j);
            }
            let _ = writeln!(out, "  }}");
        }
        for (cand, &weight) in sk.candidates.iter().zip(&self.weight) {
            let (from, to) = (cand.from, cand.to);
            if cand.pair.is_none() {
                let _ = writeln!(out, "  n{from} -> n{to} [style=dashed, arrowhead=none];");
            } else if weight.is_finite() {
                let _ = writeln!(out, "  n{from} -> n{to} [label=\"{weight:.3}\"];");
            }
        }
        out.push_str("}\n");
        out
    }

    /// The *effective* availability view the prepared buffers were
    /// computed against, when the delta cache is live. With a zero
    /// ψ-threshold this equals the last prepared view; with a positive
    /// threshold it lags by at most the quantized-away moves.
    pub fn effective_view(&self) -> Option<&AvailabilityView> {
        self.cache.valid.then_some(&self.cache.view)
    }

    /// Sets the delta-repair tuning knobs (threshold, fallback
    /// fraction). Takes effect from the next delta-path prepare.
    pub fn set_delta_config(&mut self, config: DeltaConfig) {
        self.cache.config = config;
    }

    /// The current delta-repair tuning knobs.
    pub fn delta_config(&self) -> DeltaConfig {
        self.cache.config
    }

    /// The infeasible candidate closest to fitting under the last
    /// snapshot: its most-overshooting resource and the `req/avail`
    /// overshoot ratio (> 1). `None` when every candidate fits (or none
    /// carries demand). This names the blocking resource when planning
    /// fails outright.
    pub fn nearest_miss(&self) -> Option<(ResourceId, f64)> {
        let sk = self.skeleton.as_deref()?;
        let mut best: Option<(ResourceId, f64)> = None;
        for e in 0..sk.n_candidates() {
            if self.weight[e].is_finite() {
                continue;
            }
            if let Some(b) = self.bottleneck[e] {
                if best.is_none_or(|(_, ratio)| b.psi < ratio) {
                    best = Some((b.resource, b.psi));
                }
            }
        }
        best
    }
}

/// One translation candidate's evaluation under a prepared availability
/// snapshot — the per-candidate read-out behind `CandidateEvaluated`
/// trace events. See [`PlanCtx::candidates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// Component index within the service.
    pub component: u32,
    /// Input QoS level index.
    pub qin: u32,
    /// Output QoS level index.
    pub qout: u32,
    /// Whether the candidate's demand fits current availability.
    pub feasible: bool,
    /// The candidate's weight ψ when feasible; the limiting `req/avail`
    /// overshoot ratio (> 1) when not.
    pub psi: f64,
    /// The candidate's most stressed resource (absent for zero-demand
    /// candidates).
    pub resource: Option<ResourceId>,
    /// The availability-change index α of that resource.
    pub alpha: Option<f64>,
}

#[cfg(test)]
impl PlanCtx {
    /// The prepared skeleton.
    pub(crate) fn skeleton(&self) -> &QrgSkeleton {
        self.skeleton_arc()
    }

    /// The prepared skeleton, shared.
    pub(crate) fn skeleton_arc(&self) -> &Arc<QrgSkeleton> {
        self.skeleton.as_ref().expect("prepared")
    }

    /// How many skeletons the context holds.
    pub(crate) fn skeleton_count(&self) -> usize {
        self.skeletons.len()
    }

    /// The view over the prepared buffers and Pass I's result over it,
    /// relaxing first when needed.
    pub(crate) fn relaxed(&mut self) -> (CtxView<'_>, &[f64], &[Option<u32>]) {
        if !self.relaxed {
            self.relax_now();
        }
        let view = CtxView {
            sk: self.skeleton.as_deref().expect("relaxed implies prepared"),
            options: &self.options,
            demand_off: &self.demand_off,
            demand_buf: &self.demand_buf,
            weight: &self.weight,
            bottleneck: &self.bottleneck,
        };
        (view, &self.scratch.dist, &self.scratch.pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reprepare_across_sessions_and_scales() {
        // One context serving two different sessions (different specs and
        // scales) must stay correct — buffers are fully rebuilt, so every
        // plan equals a fresh context's.
        let fx = ChainFixture::paper_like();
        let fat = ChainFixture::paper_like_scaled(10.0);
        let mut ctx = PlanCtx::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            for (session, space, expect_level) in
                [(&fx.session, &fx.space, 2), (&fat.session, &fat.space, 0)]
            {
                let view = AvailabilityView::from_fn(space.ids(), |_| 100.0);
                let options = QrgOptions::default();
                let plan = ctx
                    .plan_session(session, &view, &options, Planner::Basic, &mut rng)
                    .unwrap();
                let fresh = PlanCtx::new()
                    .plan_session(session, &view, &options, Planner::Basic, &mut rng)
                    .unwrap();
                assert_eq!(plan, fresh);
                assert_eq!(plan.sink_level, expect_level);
            }
        }
    }

    #[test]
    fn specs_without_sessions_are_evicted_on_the_next_miss() {
        fn prepare(ctx: &mut PlanCtx, fx: &ChainFixture) {
            let view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
            ctx.prepare(&fx.session, &view, &QrgOptions::default());
        }
        let mut ctx = PlanCtx::new();
        let kept = ChainFixture::paper_like();
        let gone = ChainFixture::paper_like();
        prepare(&mut ctx, &gone);
        let dropped = Arc::downgrade(ctx.skeleton_arc());
        prepare(&mut ctx, &kept);
        drop(gone);
        // A hit evicts nothing...
        prepare(&mut ctx, &kept);
        assert!(dropped.upgrade().is_some());
        // ...the next miss drops the skeleton nobody can plan with.
        let current = ChainFixture::paper_like();
        prepare(&mut ctx, &current);
        assert!(dropped.upgrade().is_none(), "evicted on the miss");
        assert_eq!(ctx.skeleton_count(), 2);

        // The prepared spec's skeleton goes too once its sessions do.
        let prepared = Arc::downgrade(ctx.skeleton_arc());
        drop(current);
        prepare(&mut ctx, &ChainFixture::paper_like());
        assert!(prepared.upgrade().is_none(), "evicted on the miss");
        assert_eq!(ctx.skeleton_count(), 2);
    }

    #[test]
    fn plan_can_be_called_repeatedly_after_one_prepare() {
        let fx = ChainFixture::paper_like();
        let view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        let mut ctx = PlanCtx::new();
        ctx.prepare(&fx.session, &view, &QrgOptions::default());
        let mut rng = StdRng::seed_from_u64(9);
        let a = ctx.plan(Planner::Basic, &mut rng).unwrap();
        let b = ctx.plan(Planner::Basic, &mut rng).unwrap();
        assert_eq!(a, b);
        for _ in 0..10 {
            let r = ctx.plan(Planner::Random, &mut rng).unwrap();
            assert_eq!(r.sink_level, a.sink_level);
        }
    }

    #[test]
    #[should_panic(expected = "before PlanCtx::prepare")]
    fn plan_before_prepare_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PlanCtx::new().plan(Planner::Basic, &mut rng);
    }

    /// Asserts `ctx`'s prepared buffers and relaxation are bit-identical
    /// to a freshly fully-prepared context over the same view.
    fn assert_state_matches_full(
        ctx: &mut PlanCtx,
        session: &SessionInstance,
        view: &AvailabilityView,
    ) {
        let options = QrgOptions::default();
        let mut full = PlanCtx::new();
        full.prepare(session, view, &options);
        full.relax_now();
        ctx_relaxed(ctx);
        assert_eq!(
            ctx.weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            full.weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            "weights diverged from full prepare"
        );
        assert_eq!(ctx.bottleneck, full.bottleneck, "bottlenecks diverged");
        let (dist_a, pred_a) = ctx.relaxation().expect("delta path relaxes eagerly");
        let (dist_b, pred_b) = full.relaxation().unwrap();
        assert_eq!(
            dist_a.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            dist_b.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "relaxation distances diverged"
        );
        assert_eq!(pred_a, pred_b, "relaxation predecessors diverged");
    }

    fn ctx_relaxed(ctx: &mut PlanCtx) {
        if !ctx.relaxed {
            ctx.relax_now();
        }
    }

    #[test]
    fn delta_repair_is_bit_identical_to_full_prepare() {
        let fx = ChainFixture::paper_like();
        let options = QrgOptions::default();
        let mut ctx = PlanCtx::new();

        let mut view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        let cold = ctx.prepare_delta(&fx.session, &view, &options);
        assert_eq!(cold, RepairOutcome::Full(FullReason::ColdCache));
        assert_state_matches_full(&mut ctx, &fx.session, &view);

        // Nudge one resource: must repair, not rebuild, and still match.
        view.set(fx.space.id("bw12").unwrap(), 60.0);
        let outcome = ctx.prepare_delta(&fx.session, &view, &options);
        let stats = outcome.stats().expect("warm cache repairs");
        assert_eq!(stats.resources_changed, 1);
        assert!(stats.candidates_reevaluated >= 1);
        assert_state_matches_full(&mut ctx, &fx.session, &view);

        // Identical view again: pure reuse.
        let outcome = ctx.prepare_delta(&fx.session, &view, &options);
        assert_eq!(outcome, RepairOutcome::Repaired(RepairStats::default()));
        assert_state_matches_full(&mut ctx, &fx.session, &view);
    }

    #[test]
    fn delta_plans_match_full_plans_across_a_snapshot_sequence() {
        let fx = ChainFixture::paper_like();
        let options = QrgOptions::default();
        let mut delta_ctx = PlanCtx::new();
        let mut full_ctx = PlanCtx::new();
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        for avail in [100.0, 99.0, 40.0, 11.0, 3.0, 1000.0] {
            let view = AvailabilityView::from_fn(fx.space.ids(), |_| avail);
            delta_ctx.prepare_delta(&fx.session, &view, &options);
            for planner in [
                Planner::Basic,
                Planner::Tradeoff,
                Planner::Random,
                Planner::Dag,
            ] {
                let a = delta_ctx.plan(planner, &mut rng_a);
                let b = full_ctx.plan_session(&fx.session, &view, &options, planner, &mut rng_b);
                assert_eq!(a, b, "avail {avail}, planner {planner:?}");
                assert_eq!(rng_a, rng_b);
            }
        }
    }

    #[test]
    fn epoch_token_short_circuits_and_generation_guards_reuse() {
        let fx = ChainFixture::paper_like();
        let options = QrgOptions::default();
        let mut ctx = PlanCtx::new();
        let view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        let snap = EpochSnapshot::new(3, 0.0, view.clone());
        assert!(ctx.prepare_epoch(&fx.session, &snap, &options).is_full());
        // Same snapshot: token fast path, zero work.
        assert_eq!(
            ctx.prepare_epoch(&fx.session, &snap, &options),
            RepairOutcome::Repaired(RepairStats::default())
        );
        // A *different* snapshot with the same epoch number and a
        // changed view must not be mistaken for the cached one.
        let mut view2 = view.clone();
        view2.set(fx.space.id("bw12").unwrap(), 20.0);
        let snap2 = EpochSnapshot::new(3, 0.0, view2.clone());
        let outcome = ctx.prepare_epoch(&fx.session, &snap2, &options);
        let stats = outcome.stats().expect("repairs, not reuses");
        assert_eq!(stats.resources_changed, 1);
        assert_state_matches_full(&mut ctx, &fx.session, &view2);
    }

    #[test]
    fn session_and_options_changes_fall_back_to_full() {
        let fx = ChainFixture::paper_like();
        let fat = ChainFixture::paper_like_scaled(10.0);
        let options = QrgOptions::default();
        let mut ctx = PlanCtx::new();
        let view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        ctx.prepare_delta(&fx.session, &view, &options);
        assert_eq!(
            ctx.prepare_delta(&fat.session, &view, &options),
            RepairOutcome::Full(FullReason::SessionChanged)
        );
        let other = QrgOptions {
            disable_tie_break: true,
            ..QrgOptions::default()
        };
        assert_eq!(
            ctx.prepare_delta(&fat.session, &view, &other),
            RepairOutcome::Full(FullReason::OptionsChanged)
        );
        assert_state_matches_full_with(&mut ctx, &fat.session, &view, &other);
    }

    /// Like `assert_state_matches_full` but under explicit options.
    fn assert_state_matches_full_with(
        ctx: &mut PlanCtx,
        session: &SessionInstance,
        view: &AvailabilityView,
        options: &QrgOptions,
    ) {
        let mut full = PlanCtx::new();
        full.prepare(session, view, options);
        full.relax_now();
        ctx_relaxed(ctx);
        assert_eq!(
            ctx.weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            full.weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        );
        let (dist_a, pred_a) = ctx.relaxation().unwrap();
        let (dist_b, pred_b) = full.relaxation().unwrap();
        assert_eq!(
            dist_a.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            dist_b.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(pred_a, pred_b);
    }

    #[test]
    fn oversized_delta_falls_back_to_full_rebuild() {
        let fx = ChainFixture::paper_like();
        let options = QrgOptions::default();
        let mut ctx = PlanCtx::new();
        ctx.set_delta_config(DeltaConfig {
            psi_threshold: 0.0,
            max_dirty_fraction: 0.0, // any dirty candidate is "too many"
        });
        let mut view = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        ctx.prepare_delta(&fx.session, &view, &options);
        view.set(fx.space.id("cpu0").unwrap(), 50.0);
        assert_eq!(
            ctx.prepare_delta(&fx.session, &view, &options),
            RepairOutcome::Full(FullReason::DeltaTooLarge)
        );
        assert_state_matches_full(&mut ctx, &fx.session, &view);
    }

    #[test]
    fn quantized_threshold_keeps_subthreshold_moves_invisible() {
        let fx = ChainFixture::paper_like();
        let options = QrgOptions::default();
        let mut ctx = PlanCtx::new();
        ctx.set_delta_config(DeltaConfig {
            psi_threshold: 0.1,
            max_dirty_fraction: 1.0,
        });
        let base = AvailabilityView::from_fn(fx.space.ids(), |_| 100.0);
        ctx.prepare_delta(&fx.session, &base, &options);

        // A move landing exactly on the threshold is quantized away...
        let mut nudged = base.clone();
        nudged.set(fx.space.id("cpu0").unwrap(), 110.0);
        let outcome = ctx.prepare_delta(&fx.session, &nudged, &options);
        assert_eq!(outcome, RepairOutcome::Repaired(RepairStats::default()));
        // ...so the effective view still carries the old value.
        let eff = ctx.effective_view().unwrap();
        assert_eq!(eff.avail(fx.space.id("cpu0").unwrap()), 100.0);

        // Crossing it applies the *new* value exactly.
        let mut crossed = base.clone();
        crossed.set(fx.space.id("cpu0").unwrap(), 111.0);
        let outcome = ctx.prepare_delta(&fx.session, &crossed, &options);
        assert_eq!(outcome.stats().unwrap().resources_changed, 1);
        let eff = ctx.effective_view().unwrap();
        assert_eq!(eff.avail(fx.space.id("cpu0").unwrap()), 111.0);
        // And the buffers match a full prepare over the effective view.
        assert_state_matches_full(&mut ctx, &fx.session, &crossed);
    }

    /// One row per (case, planner), formatted like the workspace-level
    /// outcome pin. One context serves every case.
    fn fixture_rows(cases: &[(String, &SessionInstance, AvailabilityView)]) -> Vec<String> {
        use rand::RngCore;
        let mut ctx = PlanCtx::new();
        let mut rows = Vec::new();
        for (case, session, view) in cases {
            let planners: &[Planner] = if session.service().graph().is_chain() {
                &[
                    Planner::Basic,
                    Planner::Tradeoff,
                    Planner::Random,
                    Planner::Dag,
                ]
            } else {
                &[Planner::Tradeoff, Planner::Dag]
            };
            for &planner in planners {
                let mut rng = StdRng::seed_from_u64(42);
                let outcome = match ctx.plan_session(
                    session,
                    view,
                    &QrgOptions::default(),
                    planner,
                    &mut rng,
                ) {
                    Ok(p) => format!(
                        "level={} rank={} psi={:016x} sig={:?} bn={:?}",
                        p.sink_level,
                        p.rank,
                        p.psi.to_bits(),
                        p.signature(),
                        p.bottleneck.map(|b| b.resource.0)
                    ),
                    Err(e) => format!("{e:?}"),
                };
                let next = if planner == Planner::Random {
                    format!(" next={:016x}", rng.next_u64())
                } else {
                    String::new()
                };
                rows.push(format!("{case} {planner:?}: {outcome}{next}"));
            }
        }
        rows
    }

    // The pinned outcomes below were recorded before the planner was
    // reduced to one representation, so they carry what the legacy
    // per-call graph construction planned on the same inputs.

    #[test]
    fn matches_legacy_on_paper_chain_across_availability() {
        let paper = ChainFixture::paper_like();
        let cases: Vec<_> = [3.0, 11.0, 20.0, 40.0, 100.0, 1000.0]
            .into_iter()
            .map(|avail| {
                let view = AvailabilityView::from_fn(paper.space.ids(), |_| avail);
                (format!("paper@{avail}"), &paper.session, view)
            })
            .collect();
        assert_eq!(fixture_rows(&cases), PINNED_PAPER_OUTCOMES);
    }

    #[test]
    fn matches_legacy_on_dags() {
        let dags = [DagFixture::diamond(), DagFixture::non_convergent()];
        let mut cases = Vec::new();
        for (d, fx) in dags.iter().enumerate() {
            for avail in [5.0, 9.0, 100.0] {
                let view = AvailabilityView::from_fn(fx.space.ids(), |_| avail);
                cases.push((format!("dag{d}@{avail}"), &fx.session, view));
            }
        }
        assert_eq!(fixture_rows(&cases), PINNED_DAG_OUTCOMES);
    }

    #[test]
    fn matches_legacy_on_tie_break_fixture() {
        let tie = TieBreakFixture::new();
        let cases = [("tie".to_owned(), &tie.session, tie.view())];
        assert_eq!(fixture_rows(&cases), PINNED_TIE_OUTCOMES);
    }

    const PINNED_PAPER_OUTCOMES: &[&str] = &[
        "paper@3 Basic: NoFeasiblePlan",
        "paper@3 Tradeoff: NoFeasiblePlan",
        "paper@3 Random: NoFeasiblePlan next=d0764d4f4476689f",
        "paper@3 Dag: NoFeasiblePlan",
        "paper@11 Basic: level=0 rank=1 psi=3fed1745d1745d17 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(3)",
        "paper@11 Tradeoff: level=0 rank=1 psi=3fed1745d1745d17 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(3)",
        "paper@11 Random: level=0 rank=1 psi=3fed1745d1745d17 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(3) next=968d9f004e50de7d",
        "paper@11 Dag: level=0 rank=1 psi=3fed1745d1745d17 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0)] bn=Some(3)",
        "paper@20 Basic: level=1 rank=2 psi=3feccccccccccccd sig=[(0, 0, 0), (1, 0, 1), (2, 1, 1)] bn=Some(3)",
        "paper@20 Tradeoff: level=1 rank=2 psi=3feccccccccccccd sig=[(0, 0, 0), (1, 0, 1), (2, 1, 1)] bn=Some(3)",
        "paper@20 Random: level=1 rank=2 psi=3feccccccccccccd sig=[(0, 0, 1), (1, 1, 1), (2, 1, 1)] bn=Some(3) next=968d9f004e50de7d",
        "paper@20 Dag: level=1 rank=2 psi=3feccccccccccccd sig=[(0, 0, 0), (1, 0, 1), (2, 1, 1)] bn=Some(3)",
        "paper@40 Basic: level=2 rank=3 psi=3fe3333333333333 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@40 Tradeoff: level=2 rank=3 psi=3fe3333333333333 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@40 Random: level=2 rank=3 psi=3fe999999999999a sig=[(0, 0, 1), (1, 1, 1), (2, 1, 2)] bn=Some(3) next=968d9f004e50de7d",
        "paper@40 Dag: level=2 rank=3 psi=3fe3333333333333 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@100 Basic: level=2 rank=3 psi=3fceb851eb851eb8 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@100 Tradeoff: level=2 rank=3 psi=3fceb851eb851eb8 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@100 Random: level=2 rank=3 psi=3fd47ae147ae147b sig=[(0, 0, 1), (1, 1, 1), (2, 1, 2)] bn=Some(3) next=968d9f004e50de7d",
        "paper@100 Dag: level=2 rank=3 psi=3fceb851eb851eb8 sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@1000 Basic: level=2 rank=3 psi=3f989374bc6a7efa sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@1000 Tradeoff: level=2 rank=3 psi=3f989374bc6a7efa sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
        "paper@1000 Random: level=2 rank=3 psi=3fa0624dd2f1a9fc sig=[(0, 0, 1), (1, 1, 1), (2, 1, 2)] bn=Some(3) next=968d9f004e50de7d",
        "paper@1000 Dag: level=2 rank=3 psi=3f989374bc6a7efa sig=[(0, 0, 1), (1, 1, 3), (2, 3, 2)] bn=Some(3)",
    ];

    const PINNED_DAG_OUTCOMES: &[&str] = &[
        "dag0@5 Tradeoff: NoFeasiblePlan",
        "dag0@5 Dag: NoFeasiblePlan",
        "dag0@9 Tradeoff: level=0 rank=1 psi=3fe8e38e38e38e39 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(3)",
        "dag0@9 Dag: level=0 rank=1 psi=3fe8e38e38e38e39 sig=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)] bn=Some(3)",
        "dag0@100 Tradeoff: level=1 rank=2 psi=3fb999999999999a sig=[(0, 0, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)] bn=Some(0)",
        "dag0@100 Dag: level=1 rank=2 psi=3fb999999999999a sig=[(0, 0, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)] bn=Some(0)",
        "dag1@5 Tradeoff: NoFeasiblePlan",
        "dag1@5 Dag: NoFeasiblePlan",
        "dag1@9 Tradeoff: NoFeasiblePlan",
        "dag1@9 Dag: NoFeasiblePlan",
        "dag1@100 Tradeoff: BacktrackFailed { sink_level: 1 }",
        "dag1@100 Dag: BacktrackFailed { sink_level: 1 }",
    ];

    const PINNED_TIE_OUTCOMES: &[&str] = &[
        "tie Basic: level=0 rank=0 psi=3fd3333333333333 sig=[(0, 0, 1), (1, 1, 0)] bn=Some(0)",
        "tie Tradeoff: level=0 rank=0 psi=3fd3333333333333 sig=[(0, 0, 1), (1, 1, 0)] bn=Some(0)",
        "tie Random: level=0 rank=0 psi=3fd3333333333333 sig=[(0, 0, 1), (1, 1, 0)] bn=Some(0) next=b37d9f600cd835b8",
        "tie Dag: level=0 rank=0 psi=3fd3333333333333 sig=[(0, 0, 1), (1, 1, 0)] bn=Some(0)",
    ];
}
