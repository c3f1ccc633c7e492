//! Experiment runners (library side of the `table1`/`table2`/`fig2`/`fig4`/
//! `power`/`ablation`/`tradeoff` binaries).

mod ablation;
mod bci;
mod fig2;
mod power;
mod synthetic;
mod tradeoff;

pub use ablation::{run_ablation, AblationConfig, AblationRow};
pub use bci::{run_table2, Table2Config, Table2Row};
pub use fig2::{run_fig2, BoundaryRobustness, Fig2Config, Fig2Report};
pub use power::{run_power, PowerConfig, PowerRow};
pub use synthetic::{run_synthetic_sweep, SyntheticSweepConfig, SyntheticSweepRow};
pub use tradeoff::{iso_accuracy_savings, run_tradeoff, TradeoffConfig, TradeoffPoint};
