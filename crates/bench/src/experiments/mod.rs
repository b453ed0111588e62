//! Experiment registry: one generator per paper table/figure.

mod ablations;
mod autoscale_exps;
mod faults_exps;
mod fleet_exps;
mod net_exps;
mod obs_exps;
mod serve_exps;
mod sumcheck_exps;
mod system_exps;
mod workload_exps;

pub use ablations::ablations;
pub use autoscale_exps::autoscale;
pub use faults_exps::faults;
pub use fleet_exps::fleet;
pub use net_exps::{net, net_with_args};
pub use obs_exps::{obs, obs_with_args};
pub use serve_exps::{serve, serve_with_args};
pub use sumcheck_exps::{fig6, fig7, fig8, fig9, fig9_design, table1, table2, table3};
pub use system_exps::{fig10, fig11, fig12, run_pareto_sweep, table5};
pub use workload_exps::{breakdown, fig13, fig14, table6, table7, table8, table9};

/// An experiment generator; the slice is the command line after the
/// experiment name.
type Experiment = fn(&[String]) -> String;

/// Every experiment in paper order, then the post-paper extensions:
/// the one table [`ALL`], `repro list` and [`run_with_args`] read.
/// (`obs` consumes `--out-dir <dir>`; `serve` consumes `--smoke` and
/// `--out-dir <dir>` for its wall/sim trace artifacts; `net` consumes
/// `--smoke`.)
const REGISTRY: &[(&str, Experiment)] = &[
    ("table1", |_| table1()),
    ("fig6", |_| fig6()),
    ("fig7", |_| fig7()),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("fig10", |_| fig10()),
    ("fig11", |_| fig11()),
    ("fig12", |_| fig12()),
    ("table5", |_| table5()),
    ("fig13", |_| fig13()),
    ("fig14", |_| fig14()),
    ("table6", |_| table6()),
    ("table7", |_| table7()),
    ("table8", |_| table8()),
    ("table9", |_| table9()),
    ("breakdown", |_| breakdown()),
    ("ablations", |_| ablations()),
    ("fleet", |_| fleet()),
    ("autoscale", |_| autoscale()),
    ("faults", |_| faults()),
    ("obs", obs_with_args),
    ("serve", serve_with_args),
    ("net", net_with_args),
];

/// The names of the experiment registry, in its order.
pub const ALL: [&str; REGISTRY.len()] = {
    let mut names = [""; REGISTRY.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = REGISTRY[i].0;
        i += 1;
    }
    names
};

/// Runs one experiment by name.
pub fn run(name: &str) -> Option<String> {
    run_with_args(name, &[])
}

/// Looks an experiment up by name. `table4` is the paper's other name
/// for `fig10`.
fn lookup(name: &str) -> Option<Experiment> {
    let name = if name == "table4" { "fig10" } else { name };
    REGISTRY.iter().find(|(n, _)| *n == name).map(|&(_, e)| e)
}

/// Runs one experiment by name with extra command-line flags.
pub fn run_with_args(name: &str, args: &[String]) -> Option<String> {
    lookup(name).map(|experiment| experiment(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolve() {
        assert_eq!(ALL.len(), 25);
        for (i, name) in ALL.iter().enumerate() {
            assert!(!ALL[..i].contains(name), "`{name}` is registered twice");
            assert!(lookup(name).is_some(), "`{name}` does not resolve");
        }
        assert!(lookup("table4").is_some());
        assert!(lookup("perf").is_none());
    }
}
