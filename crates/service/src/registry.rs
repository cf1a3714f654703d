//! The scenario registry: every paper scenario the service can solve,
//! with its default configuration and optional fault-lattice wiring;
//! plus the stable fingerprint that names a client-defined scenario.

use kbp_core::Kbp;
use kbp_faults::{loss_lattice, FaultSchedule, FaultyContext};
use kbp_logic::Agent;
use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
use kbp_scenarios::coordinated_attack::CoordinatedAttack;
use kbp_scenarios::fixed_point_zoo;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::robot::Robot;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
use kbp_systems::{EnvActionId, FnContext, Recall};

/// How to build the standard four-point fault lattice for a scenario:
/// which environment action loses every message, and which agent the
/// crash rungs take down.
#[derive(Debug, Clone, Copy)]
pub struct LatticeSpec {
    /// The "lose everything" environment action.
    pub lose: EnvActionId,
    /// Index of the agent crashed by the crash-stop rungs
    /// (`Agent::new` is not `const`, so the registry stores the index).
    pub crash_agent: usize,
    /// First time step at which the crashed agent is down.
    pub crash_at: usize,
}

/// One scenario the service can serve.
pub struct ScenarioEntry {
    /// Wire name of the scenario.
    pub name: &'static str,
    /// Horizon used when a request does not specify one.
    pub default_horizon: usize,
    /// Recall discipline of the generated system.
    pub recall: Recall,
    /// Whether the program is past-determined (solvable by the inductive
    /// solver). Future-referring zoo programs support only `enumerate`.
    pub solvable: bool,
    /// Fault-lattice wiring, for scenarios with a lossy environment.
    pub lattice: Option<LatticeSpec>,
    build: fn() -> (FnContext, Kbp),
}

impl ScenarioEntry {
    /// Builds the fault-free context and program.
    #[must_use]
    pub fn build(&self) -> (FnContext, Kbp) {
        (self.build)()
    }

    /// Builds the context wrapped in a fault schedule, plus the program.
    #[must_use]
    pub fn build_faulty(&self, schedule: FaultSchedule) -> (FaultyContext<FnContext>, Kbp) {
        let (ctx, kbp) = self.build();
        (FaultyContext::new(ctx, schedule), kbp)
    }

    /// The named rung of this scenario's fault lattice, if both the
    /// lattice and the rung exist. Rung names are those of
    /// [`kbp_faults::loss_lattice`]: `none`, `loss`, `crash-stop`,
    /// `loss+crash-stop`.
    #[must_use]
    pub fn fault_schedule(&self, rung: &str, seed: u64) -> Option<FaultSchedule> {
        let spec = self.lattice?;
        loss_lattice(seed, spec.lose, Agent::new(spec.crash_agent), spec.crash_at)
            .into_iter()
            .find(|(name, _)| *name == rung)
            .map(|(_, schedule)| schedule)
    }

    /// The full fault lattice for this scenario, if it has one.
    #[must_use]
    pub fn fault_lattice(&self, seed: u64) -> Option<Vec<(&'static str, FaultSchedule)>> {
        let spec = self.lattice?;
        Some(loss_lattice(
            seed,
            spec.lose,
            Agent::new(spec.crash_agent),
            spec.crash_at,
        ))
    }
}

impl std::fmt::Debug for ScenarioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEntry")
            .field("name", &self.name)
            .field("default_horizon", &self.default_horizon)
            .field("recall", &self.recall)
            .field("solvable", &self.solvable)
            .finish_non_exhaustive()
    }
}

/// Stable fingerprint of a client-*defined* scenario: FNV-1a over the
/// name, a recall byte, a zero byte and the DSL source text. It names
/// the definition's file in the definitions directory and is echoed in
/// the `define` response. Including the source means a redefinition
/// under the same name but different behaviour gets a fresh
/// fingerprint, so its file replaces the old one.
#[must_use]
pub(crate) fn definition_fingerprint(name: &str, recall: Recall, source: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(name.as_bytes());
    h.write(&[match recall {
        Recall::Perfect => 1,
        Recall::Observational => 2,
    }]);
    h.write(&[0]);
    h.write(source.as_bytes());
    h.finish()
}

/// FNV-1a, hand-rolled: `std`'s `DefaultHasher` is not guaranteed stable
/// across releases, and a fingerprint must never change meaning between
/// a server and its clients or across a restart.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn muddy_children() -> (FnContext, Kbp) {
    let sc = MuddyChildren::new(3);
    (sc.context(), sc.kbp())
}

fn bit_transmission() -> (FnContext, Kbp) {
    let sc = BitTransmission::new(Channel::Lossy);
    (sc.context(), sc.kbp())
}

fn sequence_transmission() -> (FnContext, Kbp) {
    let sc = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    (sc.context(), sc.kbp())
}

fn robot() -> (FnContext, Kbp) {
    let sc = Robot::new(7, 3, 5);
    (sc.context(), sc.kbp())
}

fn coordinated_attack() -> (FnContext, Kbp) {
    let sc = CoordinatedAttack::new(Channel::Lossy);
    (sc.context(), sc.kbp())
}

fn zoo_plain() -> (FnContext, Kbp) {
    (
        fixed_point_zoo::lamp_context(),
        fixed_point_zoo::plain().kbp,
    )
}

fn zoo_self_fulfilling() -> (FnContext, Kbp) {
    (
        fixed_point_zoo::lamp_context(),
        fixed_point_zoo::self_fulfilling().kbp,
    )
}

fn zoo_self_defeating() -> (FnContext, Kbp) {
    (
        fixed_point_zoo::lamp_context(),
        fixed_point_zoo::self_defeating().kbp,
    )
}

/// The transmission scenarios' "lose everything in both directions"
/// environment action (also `capture_both` for the coordinated attack).
const LOSE_ALL: EnvActionId = EnvActionId(3);

static REGISTRY: &[ScenarioEntry] = &[
    ScenarioEntry {
        name: "muddy_children_3",
        default_horizon: 4,
        recall: Recall::Perfect,
        solvable: true,
        lattice: None,
        build: muddy_children,
    },
    ScenarioEntry {
        name: "bit_transmission",
        default_horizon: 5,
        recall: Recall::Perfect,
        solvable: true,
        lattice: Some(LatticeSpec {
            lose: LOSE_ALL,
            crash_agent: 0,
            crash_at: 1,
        }),
        build: bit_transmission,
    },
    ScenarioEntry {
        name: "bit_transmission_obs",
        default_horizon: 6,
        recall: Recall::Observational,
        solvable: true,
        lattice: Some(LatticeSpec {
            lose: LOSE_ALL,
            crash_agent: 0,
            crash_at: 1,
        }),
        build: bit_transmission,
    },
    ScenarioEntry {
        name: "sequence_transmission_2",
        default_horizon: 6,
        recall: Recall::Perfect,
        solvable: true,
        lattice: Some(LatticeSpec {
            lose: LOSE_ALL,
            crash_agent: 0,
            crash_at: 1,
        }),
        build: sequence_transmission,
    },
    ScenarioEntry {
        name: "robot",
        default_horizon: 5,
        recall: Recall::Perfect,
        solvable: true,
        lattice: None,
        build: robot,
    },
    ScenarioEntry {
        name: "coordinated_attack",
        default_horizon: 4,
        recall: Recall::Perfect,
        solvable: true,
        lattice: Some(LatticeSpec {
            lose: LOSE_ALL,
            crash_agent: 1,
            crash_at: 1,
        }),
        build: coordinated_attack,
    },
    ScenarioEntry {
        name: "zoo_plain",
        default_horizon: 3,
        recall: Recall::Perfect,
        solvable: true,
        lattice: None,
        build: zoo_plain,
    },
    ScenarioEntry {
        name: "zoo_self_fulfilling",
        default_horizon: 3,
        recall: Recall::Perfect,
        solvable: false,
        lattice: None,
        build: zoo_self_fulfilling,
    },
    ScenarioEntry {
        name: "zoo_self_defeating",
        default_horizon: 3,
        recall: Recall::Perfect,
        solvable: false,
        lattice: None,
        build: zoo_self_defeating,
    },
];

/// Every scenario the service knows, in registry order.
#[must_use]
pub fn registry() -> &'static [ScenarioEntry] {
    REGISTRY
}

/// Looks a scenario up by wire name.
#[must_use]
pub fn find(name: &str) -> Option<&'static ScenarioEntry> {
    REGISTRY.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds() {
        for entry in registry() {
            let (ctx, kbp) = entry.build();
            assert!(
                kbp.validate(&ctx).is_ok(),
                "{}: program invalid for its context",
                entry.name
            );
            assert_eq!(
                entry.solvable,
                !kbp.has_future_guards(),
                "{}: solvable flag disagrees with the program",
                entry.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for entry in registry() {
            assert!(std::ptr::eq(find(entry.name).unwrap(), entry));
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn definition_fingerprints_cover_name_recall_and_source() {
        let a = definition_fingerprint("ring", Recall::Perfect, "scenario ring {}");
        assert_eq!(
            a,
            definition_fingerprint("ring", Recall::Perfect, "scenario ring {}"),
            "deterministic"
        );
        assert_ne!(
            a,
            definition_fingerprint("ring2", Recall::Perfect, "scenario ring {}")
        );
        assert_ne!(
            a,
            definition_fingerprint("ring", Recall::Observational, "scenario ring {}")
        );
        assert_ne!(
            a,
            definition_fingerprint("ring", Recall::Perfect, "scenario ring {} "),
            "source participates: a redefinition re-fingerprints"
        );
        // Stable across releases: persisted files are named by it, and
        // clients see it in the `define` response.
        assert_eq!(a, 6498982118501523102);
    }

    #[test]
    fn lattice_rungs_resolve() {
        let bt = find("bit_transmission").unwrap();
        assert!(bt.fault_schedule("none", 1).is_some());
        assert!(bt.fault_schedule("loss+crash-stop", 1).is_some());
        assert!(bt.fault_schedule("meteor", 1).is_none());
        assert_eq!(bt.fault_lattice(1).unwrap().len(), 4);
        let mc = find("muddy_children_3").unwrap();
        assert!(mc.fault_lattice(1).is_none());
    }
}
