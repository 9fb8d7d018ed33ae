//! # bench — experiment harnesses for every table and figure
//!
//! Shared drivers ([`driver`]) and per-experiment harnesses
//! ([`experiments`]) used by the `tables` binary, which prints each
//! paper table/figure. Wall-clock performance is measured by the
//! separate `benchmark/` package, not here.

pub mod ablation;
pub mod community_sim;
pub mod driver;
pub mod experiments;
pub mod perf;

pub use ablation::{defense_matrix, empirical_rho, nx_ablation, CampaignOutcome, Defense};
pub use community_sim::{
    model_campaign, run_campaign, CampaignConfig, CampaignResult, HostOutcome,
};
pub use driver::{
    attack_timeline, cadence_sweep, checkpoint_overhead, checkpoint_overhead_with_engine,
    run_protected, CadenceCell, ThroughputRun,
};
pub use experiments::{end_to_end_gamma, obs_snapshot, table1, table2, table3, vsef_overhead};
