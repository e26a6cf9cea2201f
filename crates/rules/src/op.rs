//! The operation table: the actuator half of the ABC interface (paper
//! §4.1), declared once. Each row carries an operation's rule-name const,
//! its typed [`ManagerOp`] variant (payload filled from [`OpArgs`]), its
//! journal form (the `Display` the ops journal and replay compare), and
//! the actuator resource and bean effects `rulelint`/`rulemc` reason with
//! — or `inert`. Adding an operation is one row plus the ABCs that perform
//! it. `RAISE_VIOLATION` has no variant: the manager handles it.

use crate::analysis::Dir;
use std::fmt;

/// One row of [`OP_TABLE`]: an operation's rule name and its semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDef {
    /// The name rules fire the operation by.
    pub name: &'static str,
    /// The actuator resource it drives, and which way.
    pub actuator: Option<(&'static str, Dir)>,
    /// Its monotone effects on sensed beans, in declaration order.
    pub effects: &'static [(&'static str, Dir)],
    /// Declared intentionally effect-free (pure signalling).
    pub inert: bool,
}

macro_rules! op_table {
    (@def $name:ident { inert }) => {
        OpDef { name: $name, actuator: None, effects: &[], inert: true }
    };
    (@def $name:ident {
        $(actuator $res:literal $rdir:ident;)?
        $($bean:literal $bdir:ident),* $(,)?
    }) => {
        OpDef {
            name: $name,
            actuator: op_table!(@opt $(($res, Dir::$rdir))?),
            effects: &[$(($bean, Dir::$bdir)),*],
            inert: false,
        }
    };
    (@opt) => { None };
    (@opt $x:expr) => { Some($x) };
    ($(
        $(#[$attr:meta])*
        $NAME:ident $(=> $Variant:ident $(($arg:ident: $ty:ty))? = $form:literal)?
            { $($body:tt)* }
    )*) => {
        $(
            $(#[$attr])*
            pub const $NAME: &str = stringify!($NAME);
        )*

        /// Every operation of the table, in declaration order.
        pub const OP_TABLE: &[OpDef] = &[$(op_table!(@def $NAME { $($body)* })),*];

        /// Typed actuator operations a manager orders through an ABC: the
        /// `ManagerOperation`s of the paper's prototype, one variant per
        /// table row that reaches the plant, plus pass-through for
        /// operations outside the table.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ManagerOp {
            $($(
                #[doc = concat!("The [`", stringify!($NAME), "`] operation.")]
                $Variant $(($ty))?,
            )?)*
            /// A substrate-specific operation outside the table, passed
            /// through uninterpreted.
            Custom(String),
        }

        /// The per-manager values the parametrised operations carry, one
        /// field per payload in the table.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct OpArgs {
            $($($(
                #[doc = concat!("Payload of [`", stringify!($NAME), "`].")]
                pub $arg: $ty,
            )?)?)*
        }

        impl ManagerOp {
            /// The typed operation a rule names, its payload taken from
            /// `args`; names outside the table pass through as
            /// [`ManagerOp::Custom`].
            pub fn from_rule(name: &str, args: &OpArgs) -> ManagerOp {
                match name {
                    $($($NAME => ManagerOp::$Variant $((args.$arg))?,)?)*
                    _ => ManagerOp::Custom(name.to_owned()),
                }
            }
        }

        /// The journal form.
        impl fmt::Display for ManagerOp {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $($(ManagerOp::$Variant $(($arg))? => write!(f, $form $(, $arg)?),)?)*
                    ManagerOp::Custom(name) => write!(f, "custom({name})"),
                }
            }
        }
    };
}

op_table! {
    /// Report a contract violation to the parent manager (or the user).
    /// Escalation is pure signalling: it moves no bean and no actuator
    /// resource, by design rather than by omission.
    RAISE_VIOLATION { inert }

    /// Recruit resources and add workers to a functional-replication
    /// skeleton (paper: `ADD_EXECUTOR`; Fig. 4 adds two at a time). The
    /// payload is the manager's `add_batch`, or the whole deficit under
    /// the `ftMinWorkers` floor when that is larger.
    ADD_EXECUTOR => AddWorkers(add_batch: u32) = "addWorkers({})" {
        actuator "parDegree" Up;
        "numWorkers" Up, "remoteWorkers" Up, "departureRate" Up, "queuedTasks" Down,
        // Recruiting a slot probes quarantined endpoints: a successful
        // probe closes the circuit and resets its reconnect backoff.
        "circuitOpenCount" Down, "reconnectBackoffMs" Down,
        // More slots drain the send queues faster but give the single
        // reactor more connections to service per tick.
        "netSendQueueDepth" Down, "reactorLoopLagUs" Up,
        "tenantThroughput" Up,
    }

    /// Remove workers (paper: `REMOVE_EXECUTOR`).
    REMOVE_EXECUTOR => RemoveWorkers(remove_batch: u32) = "removeWorkers({})" {
        actuator "parDegree" Down;
        "numWorkers" Down, "remoteWorkers" Down, "departureRate" Down, "queuedTasks" Up,
        "netSendQueueDepth" Up, "reactorLoopLagUs" Down, "tenantThroughput" Down,
    }

    /// Redistribute queued tasks evenly across workers (paper: `BALANCE_LOAD`).
    BALANCE_LOAD => BalanceLoad = "balanceLoad" {
        "queueVariance" Down,
    }

    /// Increase a producer stage's output rate by a factor (paper: incRate).
    INC_RATE => IncRate(rate_inc_factor: f64) = "scaleRate({})" {
        actuator "outputRate" Up;
        "departureRate" Up, "arrivalRate" Up,
    }

    /// Decrease a producer stage's output rate by a factor (paper: decRate).
    DEC_RATE => DecRate(rate_dec_factor: f64) = "scaleRate({})" {
        actuator "outputRate" Down;
        "departureRate" Down, "arrivalRate" Down,
    }

    /// Move the slowest live worker to the fastest free node (substrates
    /// that support live migration, e.g. the simulator's farm).
    MIGRATE_SLOWEST => MigrateSlowest = "custom(MIGRATE_SLOWEST)" {
        "departureRate" Up, "speedGainRatio" Down,
    }

    /// Fault injection: kill one worker abruptly, with no graceful drain
    /// (tests, chaos rules and bench harnesses exercising the FT rules).
    KILL_WORKER => KillWorker = "custom(KILL_WORKER)" {
        actuator "parDegree" Down;
        "numWorkers" Down, "workersLost" Up,
    }

    // Tenancy: share moves redistribute pool capacity between DRR queues;
    // the firing tenant's delivered throughput and backlog follow its
    // weight.

    /// Raise the firing tenant's fair-share weight (bounded by
    /// `TENANT_MAX_SHARE`).
    GROW_SHARE => GrowShare = "custom(GROW_SHARE)" {
        actuator "tenantShare" Up;
        "tenantShare" Up, "tenantThroughput" Up, "tenantQueueDepth" Down,
    }

    /// Lower the firing tenant's fair-share weight (bounded by
    /// `TENANT_MIN_SHARE`).
    SHRINK_SHARE => ShrinkShare = "custom(SHRINK_SHARE)" {
        actuator "tenantShare" Down;
        "tenantShare" Down, "tenantThroughput" Down, "tenantQueueDepth" Up,
    }

    /// Drop queued tasks from the firing tenant (per its shed policy)
    /// until its queue is back inside the admission bound.
    SHED_LOAD => ShedLoad = "custom(SHED_LOAD)" {
        "tenantQueueDepth" Down, "tasksShed" Up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis::EffectTable, parse_rules, Action};

    const ARGS: OpArgs = OpArgs {
        add_batch: 2,
        remove_batch: 3,
        rate_inc_factor: 1.25,
        rate_dec_factor: 0.92,
    };

    #[test]
    fn every_row_has_an_effect_an_actuator_or_is_inert() {
        let table = EffectTable::standard();
        for d in OP_TABLE {
            assert!(
                d.inert || d.actuator.is_some() || !d.effects.is_empty(),
                "{} would raise W-no-effect",
                d.name
            );
            assert_eq!(table.is_inert(d.name), d.inert, "{}", d.name);
            assert_eq!(table.actuator_of(d.name), d.actuator, "{}", d.name);
            let effects: Vec<(&str, Dir)> = table
                .effects_of(d.name)
                .iter()
                .map(|(b, dir)| (b.as_str(), *dir))
                .collect();
            assert_eq!(effects, d.effects, "{}", d.name);
        }
    }

    #[test]
    fn every_operation_a_shipped_program_fires_is_a_row() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/rules");
        let mut fired = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            for rule in parse_rules(&text).unwrap().rules() {
                for action in &rule.then {
                    if let Action::Fire(name) = action {
                        fired += 1;
                        assert!(
                            OP_TABLE.iter().any(|d| d.name == name),
                            "`{}` fires `{name}`, which has no row",
                            rule.name
                        );
                    }
                }
            }
        }
        assert!(fired > 0);
    }

    #[test]
    fn each_row_renders_its_journal_form() {
        // The forms journals held before the table existed, byte for byte.
        let forms = [
            (ADD_EXECUTOR, "addWorkers(2)"),
            (REMOVE_EXECUTOR, "removeWorkers(3)"),
            (BALANCE_LOAD, "balanceLoad"),
            (INC_RATE, "scaleRate(1.25)"),
            (DEC_RATE, "scaleRate(0.92)"),
            (MIGRATE_SLOWEST, "custom(MIGRATE_SLOWEST)"),
            (KILL_WORKER, "custom(KILL_WORKER)"),
            (GROW_SHARE, "custom(GROW_SHARE)"),
            (SHRINK_SHARE, "custom(SHRINK_SHARE)"),
            (SHED_LOAD, "custom(SHED_LOAD)"),
        ];
        for (name, form) in forms {
            assert_eq!(ManagerOp::from_rule(name, &ARGS).to_string(), form);
        }
        // Every row but the manager-handled escalation has a typed op.
        for d in OP_TABLE.iter().filter(|d| d.name != RAISE_VIOLATION) {
            let op = ManagerOp::from_rule(d.name, &ARGS);
            assert!(!matches!(op, ManagerOp::Custom(_)), "{} is untyped", d.name);
        }
        let custom = ManagerOp::from_rule("NO_SUCH_OP", &ARGS);
        assert_eq!(custom, ManagerOp::Custom("NO_SUCH_OP".into()));
        assert_eq!(custom.to_string(), "custom(NO_SUCH_OP)");
    }
}
