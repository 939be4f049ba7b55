//! `paper_establish`: the paper's §5 loop on the figure-9 world, in
//! process on one thread. Poisson arrivals at 180 sessions per 60 TU are
//! sampled, instantiated and offered to `Coordinator::establish_request`
//! (planner alternating basic / tradeoff); admitted sessions depart
//! after their holding time. One op is one arrival; its latency is the
//! establish call.
//!
//! `core` planning, the `broker` proxy and local brokers, `model` and
//! `net` do all the work: no socket, codec, admission queue or timeline.

use crate::gen::{self, PaperGen, PaperOp};
use crate::harness::{best_ns_per_call, median_u64, Env, Layers, Meter, Workload, WARMUP_WINDOWS};
use crate::stats::WINDOW_OPS;
use crate::surface::{self, Departures, Established, PaperWorld, Plans};
use crate::sys;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// World, arrival stream and live-session table of one run.
pub struct PaperEstablish {
    world: PaperWorld,
    gen: PaperGen,
    rng: StdRng,
    departures: Departures,
    live: HashMap<u64, Established>,
    ops: Vec<PaperOp>,
    index: u64,
    clock: f64,
    traced: bool,
}

impl Workload for PaperEstablish {
    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let world = PaperWorld::build();
        if traced {
            world.enable_request_tracing();
        }
        Ok(PaperEstablish {
            world,
            gen: PaperGen::new(seed),
            rng: gen::product_rng(seed),
            departures: Departures::default(),
            live: HashMap::new(),
            ops: Vec::with_capacity(WINDOW_OPS),
            index: 0,
            clock: 0.0,
            traced,
        })
    }

    fn window(&mut self, meter: &mut Meter, env: &mut Env) {
        let gen_started = sys::thread_cpu_ns();
        self.ops.clear();
        self.gen.fill(&mut self.ops, WINDOW_OPS);
        env.gen_cpu_ns += sys::thread_cpu_ns() - gen_started;

        let counting = meter.in_count_prefix();
        meter.open();
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            let root = env.spans.root("op", self.index);
            while let Some(id) = self.departures.pop_due(op.at) {
                if let Some(est) = self.live.remove(&id) {
                    let span = env.spans.child("broker.proxy.terminate", root);
                    self.world.terminate(&est, op.at);
                    env.spans.close(span);
                }
            }
            let span = env.spans.child("model.instantiate", root);
            let session = self.world.instantiate(op.service, op.domain, op.scale);
            env.spans.close(span);

            let trace = self.traced.then_some(self.index);
            let span = env.spans.child("broker.proxy.establish", root);
            let started = Instant::now();
            let outcome = self
                .world
                .establish(session, op.tradeoff, trace, op.at, &mut self.rng);
            meter.record(started.elapsed().as_nanos() as u64);
            env.spans.close(span);

            if counting {
                env.counts
                    .offer(outcome.as_ref().map(|e| (e.rank(), e.psi())));
            }
            if let Some(est) = outcome {
                self.departures.schedule(op.at + op.duration, est.id());
                self.live.insert(est.id(), est);
            }
            env.spans.close(root);
            self.index += 1;
            self.clock = op.at;
        }
        meter.close();
        env.checks.attempted += self.ops.len() as u64;
    }

    fn finish(mut self, env: &mut Env, layers: &mut Layers) {
        let counts = self.world.counts();
        while let Some(id) = self.departures.pop_any() {
            if let Some(est) = self.live.remove(&id) {
                self.world.terminate(&est, self.clock);
            }
        }
        let stranded = self.live.len();
        env.checks.require(stranded == 0, || {
            format!("{stranded} live sessions had no departure scheduled")
        });
        env.checks.require(self.world.idle(), || {
            "after terminate-all some broker's available != capacity".to_owned()
        });
        if !env.traced {
            return;
        }
        layers.insert(
            "model.instantiate_ns",
            median_u64(&mut env.spans.durations("model.instantiate")),
        );
        layers.insert(
            "broker.proxy.terminate_ns",
            median_u64(&mut env.spans.durations("broker.proxy.terminate")),
        );
        let (collect, plan, commit) = self.world.span_means_ns();
        layers.insert("broker.proxy.collect_ns", collect);
        layers.insert("broker.proxy.plan_ns", plan);
        layers.insert("broker.proxy.commit_ns", commit);
        let attempts = counts.attempts.max(1) as f64;
        layers.insert(
            "broker.proxy.messages_per_op",
            counts.messages as f64 / attempts,
        );
        layers.insert(
            "broker.proxy.rollback_share",
            counts.rollbacks as f64 / attempts,
        );
    }

    fn input_hash(&self) -> u64 {
        self.gen.hash().value()
    }

    fn probes(seed: u64, budget: Duration, layers: &mut Layers) -> Result<(), String> {
        // A world as contended as the measured one: the warm-up's worth
        // of arrivals, then probe against what the brokers report.
        let mut loaded = PaperEstablish::setup(seed, false)?;
        let (mut meter, mut env) = (Meter::default(), Env::new(false));
        for _ in 0..WARMUP_WINDOWS {
            loaded.window(&mut meter, &mut env);
        }
        let view = loaded.world.live_view();
        let now = loaded.clock;
        let share = budget / 6;

        // core: PlanCtx over the four paper services.
        let sessions: Vec<_> = (0..4)
            .map(|service| {
                // Domain 2·((service+1) mod 4) never excludes `service`.
                loaded
                    .world
                    .instantiate(service, 2 * ((service + 1) % 4), 1.0)
            })
            .collect();
        let mut plans = Plans::default();
        let mut rng = gen::product_rng(seed);
        let mut k = 0usize;
        let prepare = best_ns_per_call(share, 256, || {
            plans.prepare(&sessions[k % 4], &view);
            k += 1;
        });
        let both = best_ns_per_call(share, 256, || {
            plans.prepare(&sessions[k % 4], &view);
            std::hint::black_box(plans.plan(&mut rng));
            k += 1;
        });
        layers.insert("core.prepare_ns", prepare);
        layers.insert("core.plan_ns", (both - prepare).max(0.0));

        // broker.local / net: one reserve + release.
        layers.insert(
            "broker.local.reserve_release_ns",
            best_ns_per_call(share, 1024, || loaded.world.local_reserve_release(now)),
        );
        layers.insert(
            "net.path_reserve_release_ns",
            best_ns_per_call(share, 1024, || loaded.world.path_reserve_release(now)),
        );

        // sim: the shipped flash-crowd scenario through run_scenario.
        let path = crate::repo_root().join("scenarios/flash-crowd.scenario.json");
        layers.insert("sim.dsl_load_us", sim_load_us(&path, share)?);
        let scenario = surface::load_scenario(&path)?;
        let deadline = Instant::now() + share;
        let mut best = f64::INFINITY;
        loop {
            let t = Instant::now();
            let attempts = scenario.run().max(1);
            best = best.min(t.elapsed().as_nanos() as f64 / 1e3 / attempts as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
        layers.insert("sim.scenario_us_per_op", best);
        Ok(())
    }
}

fn sim_load_us(path: &Path, budget: Duration) -> Result<f64, String> {
    surface::load_scenario(path)?;
    Ok(best_ns_per_call(budget / 4, 8, || {
        std::hint::black_box(surface::load_scenario(path).is_ok());
    }) / 1e3)
}
