//! The scenario abstraction: one PerfConf case study.

use smartconf_core::{ModelMode, ProfileSet};
use smartconf_runtime::{
    shard_seed, Baseline, Campaign, ChaosSpec, FaultClass, FaultPlan, GuardPolicy, ProfileSchedule,
    ADAPTIVE_CONFIDENCE_FLOOR, CHAOS_STREAM,
};

use crate::{RunResult, TradeoffDirection};

/// The faults a controlled run faces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults<'a> {
    /// A clean run: the fault plane stays disarmed.
    None,
    /// The standard [`FaultPlan`] of one fault class.
    Class(FaultClass),
    /// A compound-fault [`Campaign`]; its guards run campaign-hardened.
    Campaign(Campaign),
    /// An explicit plan, e.g. one soak tenant's hash-scheduled windows.
    Plan(&'a FaultPlan),
}

/// Everything that varies between the controlled runs of one scenario:
/// the seed, which model drives the controller (the frozen §6.1 fit or
/// the online RLS estimator), and which faults it faces. The case study
/// itself — plant, goal, guard fallbacks — is the [`Scenario`]'s.
///
/// `RunSpec` decides the run's label and its [`ChaosSpec`] in one place,
/// so every scenario labels and arms its runs alike.
///
/// # Example
///
/// ```
/// use smartconf_core::ModelMode;
/// use smartconf_harness::{Faults, FaultClass, GuardPolicy, RunSpec};
///
/// let spec = RunSpec::new(42, ModelMode::Adaptive, Faults::Class(FaultClass::SensorDropout));
/// assert_eq!(spec.label(), "AdaptiveChaos-SensorDropout");
/// let chaos = spec.chaos(GuardPolicy::new()).expect("a fault-bearing run arms chaos");
/// assert!(chaos.guard.confidence_floor > 0.0);
/// assert!(RunSpec::new(42, ModelMode::Frozen, Faults::None).chaos(GuardPolicy::new()).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec<'a> {
    /// The run's base seed; it also seeds the fault plane.
    pub seed: u64,
    /// Which estimator the controller is synthesized with.
    pub model: ModelMode,
    /// The faults the run faces.
    pub faults: Faults<'a>,
}

impl<'a> RunSpec<'a> {
    /// A spec from its three parts.
    pub fn new(seed: u64, model: ModelMode, faults: Faults<'a>) -> Self {
        RunSpec {
            seed,
            model,
            faults,
        }
    }

    fn adaptive(&self) -> bool {
        self.model == ModelMode::Adaptive
    }

    /// The run label: `SmartConf`, `Adaptive`, `Chaos-X`,
    /// `AdaptiveChaos-X`, `Campaign-X`, `AdaptiveCampaign-X`,
    /// `Plan-chaos` or `AdaptivePlan-chaos`.
    pub fn label(&self) -> String {
        let prefix = if self.adaptive() { "Adaptive" } else { "" };
        match self.faults {
            Faults::None if self.adaptive() => "Adaptive".to_string(),
            Faults::None => "SmartConf".to_string(),
            Faults::Class(c) => format!("{prefix}Chaos-{}", c.label()),
            Faults::Campaign(c) => format!("{prefix}Campaign-{}", c.label()),
            Faults::Plan(_) => format!("{prefix}Plan-chaos"),
        }
    }

    /// The chaos spec that arms the run's control plane, or `None` for a
    /// clean run. The fault plane is seeded with
    /// `shard_seed(seed, CHAOS_STREAM)`, so `(seed, faults)` replays
    /// exactly. `guard` is the scenario's guard ladder; adaptive runs
    /// add the [`ADAPTIVE_CONFIDENCE_FLOOR`] safety net for estimator
    /// collapse, and campaigns add
    /// [`GuardPolicy::campaign_hardened`]. The two write disjoint
    /// fields, so their order does not matter.
    pub fn chaos(&self, mut guard: GuardPolicy) -> Option<ChaosSpec> {
        let plan = match self.faults {
            Faults::None => return None,
            Faults::Class(class) => class.standard_plan(),
            Faults::Campaign(campaign) => {
                guard = guard.campaign_hardened();
                campaign.plan()
            }
            Faults::Plan(plan) => plan.clone(),
        };
        if self.adaptive() {
            guard = guard.confidence_floor(ADAPTIVE_CONFIDENCE_FLOOR);
        }
        Some(ChaosSpec::new(shard_seed(self.seed, CHAOS_STREAM), plan).with_guard(guard))
    }
}

/// One PerfConf case study from Table 6 (e.g. HB3813), runnable under a
/// static setting or under SmartConf control.
///
/// Implementations live in the host-system crates
/// (`smartconf-kvstore`, `smartconf-dfs`, `smartconf-mapred`); the bench
/// crate drives them through this trait to regenerate the evaluation.
pub trait Scenario {
    /// Issue identifier, e.g. `"HB3813"`.
    fn id(&self) -> &str;

    /// One-line description of the configuration and its trade-off.
    fn description(&self) -> &str;

    /// The configuration name, e.g. `"ipc.server.max.queue.size"`.
    fn config_name(&self) -> &str;

    /// Candidate static settings for the exhaustive sweep that finds the
    /// static optimal (paper §6.3: "we find the best static configuration
    /// by exhaustively searching all possible PerfConf settings").
    fn candidate_settings(&self) -> Vec<f64>;

    /// The static setting associated with a named baseline. `Optimal`
    /// and `Nonoptimal` are discovered by sweeping and return `None`
    /// here; `Fixed` settings resolve without consulting the scenario.
    fn static_setting(&self, choice: Baseline) -> Option<f64>;

    /// Which direction of the trade-off metric is better.
    fn tradeoff_direction(&self) -> TradeoffDirection;

    /// Runs the two-phase evaluation workload with a fixed setting.
    fn run_static(&self, setting: f64, seed: u64) -> RunResult;

    /// Runs the evaluation workload under SmartConf control, as `spec`
    /// says: the controller is synthesized with `spec.model` from
    /// `profiles`, the control plane is armed with
    /// `spec.chaos(guard)` for the scenario's guard ladder, and the
    /// result is labelled `spec.label()`.
    ///
    /// `profiles` holds [`Scenario::evaluation_profiles`] for
    /// `spec.seed`; the result must be byte-identical to a run that
    /// profiled for itself. The soak's real-tenant cross-check is the
    /// one looser caller: it stamps many per-tenant seeds with profiles
    /// cached for one base seed (the plants differ in workload phase,
    /// not in gain).
    ///
    /// There is no default: a scenario that cannot inject a fault or
    /// switch its model must say so here rather than silently run clean.
    fn run(&self, spec: &RunSpec<'_>, profiles: &[ProfileSet]) -> RunResult;

    /// Runs the two-phase evaluation workload under SmartConf control,
    /// profiling first.
    fn run_smartconf(&self, seed: u64) -> RunResult {
        self.run_smartconf_profiled(seed, &self.evaluation_profiles(seed))
    }

    /// The declarative profiling schedule (paper §6.1: which settings to
    /// hold, how many measurements per setting, how to sample them). The
    /// shared `Profiler` in `smartconf-runtime` drives this schedule;
    /// scenarios no longer hand-roll the loop. Defaults to the paper's
    /// 10 measurements at each candidate setting.
    fn profile_schedule(&self) -> ProfileSchedule {
        ProfileSchedule::first_events(self.candidate_settings(), 10)
    }

    /// Runs the profiling workload (distinct from the evaluation workload,
    /// §6.1) and returns the collected samples.
    fn profile(&self, seed: u64) -> ProfileSet;

    /// Every profile set a SmartConf-controlled evaluation run at `seed`
    /// collects before it starts, in a stable order. The fleet harness
    /// memoizes this per `(scenario, seed)` and feeds it to
    /// [`Scenario::run`], so the §6.1 profiling loop runs once per
    /// (scenario, seed) instead of once per policy shard.
    ///
    /// The default matches the Table 6 convention of one profile at
    /// `seed ^ 0x5eed`; scenarios that profile differently (e.g. TWIN's
    /// two queues) override it.
    fn evaluation_profiles(&self, seed: u64) -> Vec<ProfileSet> {
        vec![self.profile(seed ^ 0x5eed)]
    }

    /// [`Scenario::run`] with the frozen model and no faults.
    fn run_smartconf_profiled(&self, seed: u64, profiles: &[ProfileSet]) -> RunResult {
        self.run(
            &RunSpec::new(seed, ModelMode::Frozen, Faults::None),
            profiles,
        )
    }

    /// [`Scenario::run`] with the frozen model and the standard plan of
    /// one fault class.
    fn run_chaos_profiled(
        &self,
        seed: u64,
        class: FaultClass,
        profiles: &[ProfileSet],
    ) -> RunResult {
        let spec = RunSpec::new(seed, ModelMode::Frozen, Faults::Class(class));
        self.run(&spec, profiles)
    }

    /// [`Scenario::run`] with the adaptive model and no faults.
    fn run_adaptive_profiled(&self, seed: u64, profiles: &[ProfileSet]) -> RunResult {
        self.run(
            &RunSpec::new(seed, ModelMode::Adaptive, Faults::None),
            profiles,
        )
    }

    /// [`Scenario::run`] with the adaptive model and the standard plan
    /// of one fault class.
    fn run_adaptive_chaos_profiled(
        &self,
        seed: u64,
        class: FaultClass,
        profiles: &[ProfileSet],
    ) -> RunResult {
        let spec = RunSpec::new(seed, ModelMode::Adaptive, Faults::Class(class));
        self.run(&spec, profiles)
    }

    /// [`Scenario::run`] with the frozen model and a compound-fault
    /// campaign.
    fn run_campaign_profiled(
        &self,
        seed: u64,
        campaign: Campaign,
        profiles: &[ProfileSet],
    ) -> RunResult {
        let spec = RunSpec::new(seed, ModelMode::Frozen, Faults::Campaign(campaign));
        self.run(&spec, profiles)
    }

    /// [`Scenario::run`] with the adaptive model and a compound-fault
    /// campaign.
    fn run_adaptive_campaign_profiled(
        &self,
        seed: u64,
        campaign: Campaign,
        profiles: &[ProfileSet],
    ) -> RunResult {
        let spec = RunSpec::new(seed, ModelMode::Adaptive, Faults::Campaign(campaign));
        self.run(&spec, profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario over the plant `metric = setting`, constraint
    /// `metric <= 100`, trade-off = setting (higher is better).
    struct Toy;

    impl Scenario for Toy {
        fn id(&self) -> &str {
            "TOY1"
        }
        fn description(&self) -> &str {
            "toy"
        }
        fn config_name(&self) -> &str {
            "toy.setting"
        }
        fn candidate_settings(&self) -> Vec<f64> {
            (0..=20).map(|i| i as f64 * 10.0).collect()
        }
        fn static_setting(&self, choice: Baseline) -> Option<f64> {
            match choice {
                Baseline::BuggyDefault => Some(200.0),
                Baseline::PatchDefault => Some(150.0),
                _ => None,
            }
        }
        fn tradeoff_direction(&self) -> TradeoffDirection {
            TradeoffDirection::HigherIsBetter
        }
        fn run_static(&self, setting: f64, _seed: u64) -> RunResult {
            RunResult::new(
                format!("static-{setting}"),
                setting <= 100.0,
                setting,
                "setting",
                TradeoffDirection::HigherIsBetter,
            )
        }
        fn run(&self, spec: &RunSpec<'_>, _profiles: &[ProfileSet]) -> RunResult {
            let mut r = self.run_static(100.0, spec.seed);
            r.label = spec.label();
            r
        }
        fn profile(&self, _seed: u64) -> ProfileSet {
            [(10.0, 10.0), (20.0, 20.0)].into_iter().collect()
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let s: Box<dyn Scenario> = Box::new(Toy);
        assert_eq!(s.id(), "TOY1");
        assert!(s.run_static(50.0, 1).constraint_ok);
        assert!(!s.run_static(150.0, 1).constraint_ok);
        assert_eq!(s.run_smartconf(1).label, "SmartConf");
        assert_eq!(s.static_setting(Baseline::Optimal), None);
        assert_eq!(s.profile(1).num_settings(), 2);
    }

    #[test]
    fn run_spec_labels_every_lowering() {
        let plan = FaultPlan::new();
        let class = FaultClass::SensorDropout;
        let campaign = Campaign::BurstEverything;
        let cases = [
            (ModelMode::Frozen, Faults::None, "SmartConf".to_string()),
            (ModelMode::Adaptive, Faults::None, "Adaptive".to_string()),
            (
                ModelMode::Frozen,
                Faults::Class(class),
                format!("Chaos-{}", class.label()),
            ),
            (
                ModelMode::Adaptive,
                Faults::Class(class),
                format!("AdaptiveChaos-{}", class.label()),
            ),
            (
                ModelMode::Frozen,
                Faults::Campaign(campaign),
                format!("Campaign-{}", campaign.label()),
            ),
            (
                ModelMode::Adaptive,
                Faults::Campaign(campaign),
                format!("AdaptiveCampaign-{}", campaign.label()),
            ),
            (
                ModelMode::Frozen,
                Faults::Plan(&plan),
                "Plan-chaos".to_string(),
            ),
            (
                ModelMode::Adaptive,
                Faults::Plan(&plan),
                "AdaptivePlan-chaos".to_string(),
            ),
        ];
        for (model, faults, label) in cases {
            assert_eq!(RunSpec::new(7, model, faults).label(), label);
        }
    }

    #[test]
    fn run_spec_chaos_composes_the_guard_ladder() {
        let base = GuardPolicy::new().fallback_setting("c", 1.0);
        let clean = RunSpec::new(7, ModelMode::Adaptive, Faults::None);
        assert!(clean.chaos(base.clone()).is_none());

        let class = FaultClass::PlantRestart;
        let frozen = RunSpec::new(7, ModelMode::Frozen, Faults::Class(class))
            .chaos(base.clone())
            .unwrap();
        assert_eq!(
            frozen,
            ChaosSpec::standard(class, shard_seed(7, CHAOS_STREAM)).with_guard(base.clone())
        );

        let campaign = Campaign::RestartUnderCorruption;
        let adaptive = RunSpec::new(7, ModelMode::Adaptive, Faults::Campaign(campaign))
            .chaos(base.clone())
            .unwrap();
        // Built in the opposite order to `RunSpec::chaos`: the two setters
        // write disjoint fields, so the order must not matter.
        let guard = base
            .clone()
            .confidence_floor(ADAPTIVE_CONFIDENCE_FLOOR)
            .campaign_hardened();
        assert_eq!(
            adaptive,
            ChaosSpec::campaign(campaign, shard_seed(7, CHAOS_STREAM)).with_guard(guard)
        );

        let plan = class.standard_plan();
        let replay = RunSpec::new(7, ModelMode::Frozen, Faults::Plan(&plan))
            .chaos(base.clone())
            .unwrap();
        assert_eq!(replay, frozen, "a class is its standard plan");
    }
}
