//! Multi-tenant front-end for behavioural skeletons.
//!
//! The paper's behavioural skeletons bind ONE computation to one autonomic
//! manager. Real deployments share the expensive part — the worker pool —
//! between several client computations with their own QoS contracts. This
//! crate adds that front half without touching the farm substrate:
//!
//! ```text
//!  tenant A ──submit──▶ [queue A] ─┐
//!  tenant B ──submit──▶ [queue B] ─┼─ DRR scheduler ──▶ Farm input
//!  tenant C ──submit──▶ [queue C] ─┘       ▲                 │
//!       ▲                    ▲             │                 ▼
//!   admission control    SHED_LOAD    GROW/SHRINK_SHARE   collector ──▶ per-tenant
//!   (bounded queues)         └──── per-tenant AMs ◀─────── demux         outputs
//!                                      │ raiseViol
//!                                      ▼
//!                               pool arbiter AM ──ADD_EXECUTOR──▶ FarmControl
//! ```
//!
//! - [`TenantSpec`] names a tenant, carries its [`Contract`] and admission
//!   policy ([`ShedPolicy`]: bounded queue, shed-oldest or reject).
//! - [`TenantFrontEnd`] multiplexes the tenant queues onto one shared farm
//!   with a deficit-round-robin scheduler (`drr`) weighted by live,
//!   manager-adjustable shares, plus per-tenant in-flight caps so a
//!   flooding tenant cannot monopolise the workers or inflate a modest
//!   tenant's tail latency.
//! - `TenantAbc` / `ArbiterAbc` expose each tenant and the shared pool
//!   to `AutonomicManager`s running `rules/tenancy.rules`
//!   (`bskel_rules::stdlib::tenancy_rules`): per-tenant managers grow /
//!   shrink their share and shed load; at the share ceiling they escalate
//!   (`raiseViol`) to the arbiter, which grows the shared pool.
//! - [`server`] speaks the `bskel_net` wire protocol: a `TenantAttach`
//!   frame opens a tenant stream over TCP, `Task` frames are admitted
//!   through the same front-end, results and sheds come back as `Result` /
//!   `Lost` frames.
//!
//! [`Contract`]: bskel_core::Contract

pub mod abc;
mod aimd;
mod drr;
mod frontend;
pub mod server;
pub mod spec;

pub use abc::{arbiter_config, build_managers, build_managers_with, TenancyManagers};
pub use frontend::{
    Admission, LossReason, TenancyReport, TenantFrontEnd, TenantHandle, TenantMsg, TenantReport,
    TenantStats,
};
pub use server::{TenancyServer, TenantClient};
pub use spec::{ShedPolicy, TenantSpec};
