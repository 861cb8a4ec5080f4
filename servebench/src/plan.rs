//! Seeded request plans. A plan is everything the daemon will ever see:
//! one tenant's `hello`, its `arrive`/`tick` lines in virtual-time order,
//! and the `drain`/`bye` tail, each with its `seq`. The same seed gives
//! byte-identical plans.

use calib_core::json::{Json, ToJson};
use calib_core::{Instance, Job, Time};
use calib_workloads::{arrivals, make_instance, WeightModel};

use crate::config::{Arrivals, TenantSpec, Workload};

/// What a plan step asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Arrive,
    Tick,
}

/// One `arrive` or `tick` request of a tenant plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub seq: u64,
    pub kind: Kind,
    /// Virtual time the step belongs to; plans of different tenants are
    /// interleaved by it.
    pub vtime: Time,
    /// Jobs submitted by this step and every step before it.
    pub jobs_upto: usize,
    /// The request line, without its newline.
    pub line: String,
}

/// One tenant's whole session.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    pub name: String,
    pub spec: TenantSpec,
    /// Every generated job in `(release, id)` order; the steps submit them
    /// in this order.
    pub jobs: Vec<Job>,
    /// `arrive`/`tick` steps with `seq` 1, 2, ...; `hello` is `seq` 0.
    pub steps: Vec<Step>,
}

/// A 64-bit finalizer (splitmix64), so nearby seeds give unrelated streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tenant_seed(seed: u64, tag: &str, index: usize) -> u64 {
    let tag_hash = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    mix(mix(seed ^ tag_hash).wrapping_add(index as u64))
}

fn weights(spec: &TenantSpec) -> WeightModel {
    if spec.max_weight <= 1 {
        WeightModel::Unit
    } else {
        WeightModel::Uniform {
            max: spec.max_weight,
        }
    }
}

fn line(fields: Vec<(&'static str, Json)>) -> String {
    Json::obj(fields).to_string_compact()
}

impl TenantPlan {
    fn builder(name: String, spec: TenantSpec, jobs: Vec<Job>) -> TenantPlan {
        TenantPlan {
            name,
            spec,
            jobs,
            steps: Vec::new(),
        }
    }

    fn push_arrive(&mut self, vtime: Time, upto: usize) {
        let from = self.steps.last().map_or(0, |s| s.jobs_upto);
        let seq = self.steps.len() as u64 + 1;
        let line = line(vec![
            ("type", "arrive".to_json()),
            ("tenant", self.name.as_str().to_json()),
            ("jobs", self.jobs[from..upto].to_vec().to_json()),
            ("seq", seq.to_json()),
        ]);
        self.steps.push(Step {
            seq,
            kind: Kind::Arrive,
            vtime,
            jobs_upto: upto,
            line,
        });
    }

    fn push_tick(&mut self, now: Time) {
        let upto = self.steps.last().map_or(0, |s| s.jobs_upto);
        let seq = self.steps.len() as u64 + 1;
        let line = line(vec![
            ("type", "tick".to_json()),
            ("tenant", self.name.as_str().to_json()),
            ("now", now.to_json()),
            ("seq", seq.to_json()),
        ]);
        self.steps.push(Step {
            seq,
            kind: Kind::Tick,
            vtime: now,
            jobs_upto: upto,
            line,
        });
    }

    /// The opening `hello` (`seq` 0).
    pub fn hello_line(&self) -> String {
        line(vec![
            ("type", "hello".to_json()),
            ("tenant", self.name.as_str().to_json()),
            ("machines", self.spec.machines.to_json()),
            ("cal_len", self.spec.cal_len.to_json()),
            ("cal_cost", self.spec.cal_cost.to_json()),
            ("algorithm", self.spec.algorithm.name().to_json()),
            ("weight", self.spec.weight.to_json()),
            ("seq", 0u64.to_json()),
        ])
    }

    /// A tenant-addressed request with no other fields (`drain`, `bye`,
    /// `resume`).
    pub fn simple_line(&self, kind: &str, seq: Option<u64>) -> String {
        let mut fields = vec![
            ("type", kind.to_json()),
            ("tenant", self.name.as_str().to_json()),
        ];
        if let Some(s) = seq {
            fields.push(("seq", s.to_json()));
        }
        line(fields)
    }

    /// The jobs submitted by the first `cut` steps, as the instance a
    /// local batch run must reproduce.
    pub fn instance_upto(&self, cut: usize) -> Instance {
        let upto = match cut {
            0 => 0,
            n => self.steps[n - 1].jobs_upto,
        };
        Instance::new(
            self.jobs[..upto].to_vec(),
            self.spec.machines,
            self.spec.cal_len,
        )
        .expect("workload tenants have positive T and at least one machine")
    }
}

/// Consecutive sessions (generations) of every tenant template of a
/// workload, made one generation at a time. Plan `g * templates + i` is
/// generation `g` of template `i`, called `<tag>-g<g>-t<i>`, with
/// `session_steps` steps. Generation `g` starts where generation `g - 1`
/// ended in virtual time, so the merged order plays generations one after
/// another. `tag` and `seed` pick the inputs.
pub struct Sessions<'w> {
    workload: &'w Workload,
    tag: String,
    seed: u64,
    generation: usize,
    offset: Time,
}

impl<'w> Sessions<'w> {
    pub fn new(workload: &'w Workload, tag: &str, seed: u64) -> Sessions<'w> {
        Sessions {
            workload,
            tag: tag.to_string(),
            seed,
            generation: 0,
            offset: 0,
        }
    }

    /// The next generation: one plan per tenant template.
    pub fn next_generation(&mut self) -> Vec<TenantPlan> {
        let workload = self.workload;
        let (g, offset) = (self.generation, self.offset);
        let mut end = offset;
        let mut plans = Vec::with_capacity(workload.tenants.len());
        for (i, spec) in workload.tenants.iter().enumerate() {
            let name = format!("{}-g{g}-t{i}", self.tag);
            let s = tenant_seed(self.seed, &name, i);
            let steps = workload.session_steps;
            let plan = match workload.arrivals {
                Arrivals::Bursty {
                    burst,
                    gap,
                    tick_period,
                } => bursty_plan(
                    name,
                    spec,
                    s,
                    steps,
                    // Stagger the tenants' bursts across the gap, so their
                    // heaviest ticks do not all land at once.
                    offset + stagger(gap, tick_period, i, workload.tenants.len()),
                    burst,
                    gap,
                    tick_period,
                ),
                Arrivals::Poisson { rate } => poisson_plan(name, spec, s, steps, offset, rate),
            };
            end = end.max(plan.steps.last().map_or(offset, |st| st.vtime) + 1);
            plans.push(plan);
        }
        self.generation += 1;
        self.offset = end;
        plans
    }
}

/// The first `generations` generations of [`Sessions`].
pub fn session_plans(
    workload: &Workload,
    tag: &str,
    seed: u64,
    generations: usize,
) -> Vec<TenantPlan> {
    let mut sessions = Sessions::new(workload, tag, seed);
    (0..generations)
        .flat_map(|_| sessions.next_generation())
        .collect()
}

/// Tenant `i` of `n`'s burst offset: `i / n` of the gap, on a tick.
fn stagger(gap: Time, tick_period: Time, i: usize, n: usize) -> Time {
    let shift = gap * i as Time / n.max(1) as Time;
    shift - shift % tick_period.max(1)
}

#[allow(clippy::too_many_arguments)]
fn bursty_plan(
    name: String,
    spec: &TenantSpec,
    seed: u64,
    min_steps: usize,
    offset: Time,
    burst: usize,
    gap: Time,
    tick_period: Time,
) -> TenantPlan {
    let size = burst * spec.machines;
    let ticks = (gap / tick_period.max(1)).max(1) as usize;
    let bursts = min_steps.div_ceil(ticks + 1).max(1);
    let releases = arrivals::bursty(bursts, size, gap, false)
        .into_iter()
        .map(|r| r + offset)
        .collect();
    let instance = make_instance(releases, weights(spec), seed, spec.machines, spec.cal_len);
    let mut plan = TenantPlan::builder(name, spec.clone(), instance.jobs().to_vec());
    for b in 0..bursts {
        let start = offset + b as Time * gap;
        plan.push_arrive(start, (b + 1) * size);
        for k in 0..ticks {
            plan.push_tick(start + k as Time * tick_period);
        }
    }
    plan
}

fn poisson_plan(
    name: String,
    spec: &TenantSpec,
    seed: u64,
    min_steps: usize,
    offset: Time,
    rate: f64,
) -> TenantPlan {
    let groups = min_steps.div_ceil(2).max(1);
    // Collisions merge jobs into one release group, so draw spare jobs and
    // cut at the `groups`-th distinct release.
    let mut releases = arrivals::poisson(seed, groups * 2, rate, false);
    let mut distinct = 0usize;
    let mut keep = releases.len();
    for (i, r) in releases.iter().enumerate() {
        if i == 0 || releases[i - 1] != *r {
            distinct += 1;
            if distinct > groups {
                keep = i;
                break;
            }
        }
    }
    releases.truncate(keep);
    for r in &mut releases {
        *r += offset;
    }
    let instance = make_instance(releases, weights(spec), seed, spec.machines, spec.cal_len);
    let jobs = instance.jobs().to_vec();
    let mut plan = TenantPlan::builder(name, spec.clone(), jobs);
    let mut i = 0;
    while i < plan.jobs.len() {
        let release = plan.jobs[i].release;
        while i < plan.jobs.len() && plan.jobs[i].release == release {
            i += 1;
        }
        plan.push_arrive(release, i);
        plan.push_tick(release);
    }
    plan
}

/// Every request of every plan as `(plan, entry)`, interleaved by virtual
/// time (ties by plan, then entry). Entry 0 is the session's `hello`,
/// entry `i` in `1..=steps.len()` is step `i - 1`, and the `tail` requests
/// that follow the last step (`drain`, `bye`) take the next entries. The
/// open-loop phases send this order at a fixed absolute rate.
pub fn merged_order(plans: &[TenantPlan], tail: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<(Time, usize, usize)> = Vec::new();
    for (t, p) in plans.iter().enumerate() {
        let first = p.steps.first().map_or(0, |s| s.vtime);
        let last = p.steps.last().map_or(0, |s| s.vtime);
        order.push((first, t, 0));
        order.extend(p.steps.iter().enumerate().map(|(i, s)| (s.vtime, t, i + 1)));
        order.extend((0..tail).map(|k| (last, t, p.steps.len() + 1 + k)));
    }
    order.sort_unstable();
    order.into_iter().map(|(_, t, i)| (t, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::workloads;

    fn all_lines(plans: &[TenantPlan]) -> Vec<String> {
        plans
            .iter()
            .flat_map(|p| {
                std::iter::once(p.hello_line()).chain(p.steps.iter().map(|s| s.line.clone()))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_plans_and_other_seeds_differ() {
        for w in workloads().unwrap() {
            let a = all_lines(&session_plans(&w, "light", 11, 2));
            let b = all_lines(&session_plans(&w, "light", 11, 2));
            let c = all_lines(&session_plans(&w, "light", 12, 2));
            assert_eq!(a, b, "{}: same seed, different bytes", w.name);
            assert_ne!(a, c, "{}: different seeds, same bytes", w.name);
        }
    }

    #[test]
    fn plans_never_submit_into_the_past() {
        for w in workloads().unwrap() {
            let plans = session_plans(&w, "closed", 3, 2);
            assert_eq!(plans.len(), 2 * w.tenants.len());
            for plan in plans {
                assert!(
                    plan.steps.len() >= w.session_steps,
                    "{}: short plan",
                    w.name
                );
                let mut now = Time::MIN;
                let mut from = 0;
                for s in &plan.steps {
                    match s.kind {
                        Kind::Tick => {
                            assert!(s.vtime >= now);
                            now = s.vtime;
                        }
                        Kind::Arrive => {
                            assert!(plan.jobs[from..s.jobs_upto].iter().all(|j| j.release > now));
                        }
                    }
                    from = s.jobs_upto;
                }
                assert_eq!(from, plan.jobs.len());
            }
        }
    }
}
