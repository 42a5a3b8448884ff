//! One module per paper figure (plus the §6.1 prediction table, the
//! design-choice ablations, and the multi-job `serve` scenario). Every
//! experiment is a pure function `run(Scale) -> Table` (or a small
//! struct of tables), and every experiment registers itself in
//! [`registry`] so front-ends discover the full set without hard-coding
//! names.

pub mod ablations;
pub mod batch;
pub mod common;
pub mod e2e;
pub mod fig01_motivation;
pub mod fig02_traces;
pub mod fig03_storage;
pub mod fig06_logreg;
pub mod fig07_pagerank;
pub mod fig08_cloud;
pub mod fig12_polynomial;
pub mod fig13_scale;
pub mod pipeline;
pub mod prediction;
pub mod qos;
pub mod serve;
pub mod trace;

/// Experiment size selector.
///
/// `Full` is the `figures` binary's default; `Quick` (`figures --quick`)
/// shrinks matrices and iteration counts so unit tests and CI's figures
/// smoke stay fast while exercising the identical code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for tests and smoke runs.
    Quick,
    /// Paper-shaped sizes for the recorded results.
    Full,
}

impl Scale {
    /// Picks between the quick and full variant of a parameter.
    #[must_use]
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Callback experiments emit tables through: `(table, csv_file_name)`.
pub type EmitFn<'a> = &'a mut dyn FnMut(&crate::report::Table, &str);

/// A registered experiment, discoverable by front-ends.
pub struct ExperimentDef {
    /// Canonical selector (what the `figures` CLI matches).
    pub name: &'static str,
    /// Extra selectors that also run this experiment (e.g. `fig9` runs
    /// the `fig8` family, which emits figures 8–11 together).
    pub aliases: &'static [&'static str],
    /// One-line description shown in `--help` / error listings.
    pub summary: &'static str,
    /// Runs the experiment, emitting every table it produces.
    pub run: fn(Scale, EmitFn<'_>),
}

/// Every registered experiment, in the order the paper presents them.
///
/// Front-ends (the `figures` binary, future dashboards) iterate this
/// instead of hard-coding names, so a new experiment module only has to
/// add its entry here to become discoverable.
#[must_use]
pub fn registry() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            name: "fig1",
            aliases: &[],
            summary: "motivation: fixed (n,k) codes pay for absent stragglers",
            run: |s, emit| emit(&fig01_motivation::run(s), "fig01_motivation.csv"),
        },
        ExperimentDef {
            name: "fig2",
            aliases: &[],
            summary: "cloud speed traces and their summary statistics",
            run: |s, emit| {
                let out = fig02_traces::run(s);
                emit(&out.traces, "fig02_traces.csv");
                emit(&out.stats, "fig02_stats.csv");
            },
        },
        ExperimentDef {
            name: "fig3",
            aliases: &[],
            summary: "effective storage overhead per strategy",
            run: |s, emit| emit(&fig03_storage::run(s), "fig03_storage.csv"),
        },
        ExperimentDef {
            name: "prediction",
            aliases: &[],
            summary: "§6.1 speed-prediction accuracy (LSTM/ARIMA/last-value)",
            run: |s, emit| emit(&prediction::run(s), "prediction_6_1.csv"),
        },
        ExperimentDef {
            name: "fig6",
            aliases: &[],
            summary: "logistic regression under controlled stragglers",
            run: |s, emit| emit(&fig06_logreg::run(s), "fig06_logreg.csv"),
        },
        ExperimentDef {
            name: "fig7",
            aliases: &[],
            summary: "PageRank under controlled stragglers",
            run: |s, emit| emit(&fig07_pagerank::run(s), "fig07_pagerank.csv"),
        },
        ExperimentDef {
            name: "fig8",
            aliases: &["fig9", "fig10", "fig11"],
            summary: "cloud environments: latency and wasted work (figs 8–11)",
            run: |s, emit| {
                let out = fig08_cloud::run(s);
                emit(&out.fig8, "fig08_cloud_low.csv");
                emit(&out.fig9, "fig09_waste_low.csv");
                emit(&out.fig10, "fig10_cloud_high.csv");
                emit(&out.fig11, "fig11_waste_high.csv");
            },
        },
        ExperimentDef {
            name: "fig12",
            aliases: &[],
            summary: "polynomial-coded Hessian, conventional vs S²C²",
            run: |s, emit| emit(&fig12_polynomial::run(s), "fig12_polynomial.csv"),
        },
        ExperimentDef {
            name: "fig13",
            aliases: &[],
            summary: "scaling the cluster size",
            run: |s, emit| emit(&fig13_scale::run(s), "fig13_scale.csv"),
        },
        ExperimentDef {
            name: "serve",
            aliases: &[],
            summary: "multi-job service engine: S²C² vs MDS vs uncoded under load",
            run: |s, emit| {
                let out = serve::run(s);
                emit(&out.policies, "serve_policies.csv");
                emit(&out.load, "serve_load.csv");
                emit(&out.threads, "serve_threads.csv");
            },
        },
        ExperimentDef {
            name: "e2e",
            aliases: &[],
            summary: "execution backends: sim vs verified vs real threads + encode cache",
            run: |s, emit| emit(&e2e::run(s), "e2e_backends.csv"),
        },
        ExperimentDef {
            name: "batch",
            aliases: &[],
            summary: "batched encode/dispatch rounds for small jobs at high arrival rate",
            run: |s, emit| emit(&batch::run(s), "batch_rounds.csv"),
        },
        ExperimentDef {
            name: "qos",
            aliases: &[],
            summary: "QoS: tenant-weighted shares and deadline-aware admission",
            run: |s, emit| {
                let out = qos::run(s);
                emit(&out.weights, "qos_weights.csv");
                emit(&out.deadline, "qos_deadline.csv");
            },
        },
        ExperimentDef {
            name: "trace",
            aliases: &[],
            summary: "telemetry: trace spans, rung counts, phase profile + exported timelines",
            run: |s, emit| {
                emit(&trace::run(s), "trace_telemetry.csv");
                let dir = std::path::PathBuf::from("results");
                match trace::write_exports(s, &dir) {
                    Ok(()) => println!(
                        "[written {} and {}]\n",
                        dir.join("trace_events.jsonl").display(),
                        dir.join("trace_chrome.json").display()
                    ),
                    Err(e) => eprintln!("warning: could not write trace exports: {e}"),
                }
            },
        },
        ExperimentDef {
            name: "pipeline",
            aliases: &[],
            summary: "cross-round pipelined serving: window depth vs tail latency and stalls",
            run: |s, emit| {
                emit(&pipeline::run(s), "pipeline_depth.csv");
                let dir = std::path::PathBuf::from("results");
                match pipeline::write_exports(s, &dir) {
                    Ok(()) => println!(
                        "[written {}]\n",
                        dir.join("pipeline_events.jsonl").display()
                    ),
                    Err(e) => eprintln!("warning: could not write pipeline exports: {e}"),
                }
            },
        },
        ExperimentDef {
            name: "ablations",
            aliases: &[],
            summary: "design ablations: chunking, timeout margin, conditioning, predictor",
            run: |s, emit| {
                emit(&ablations::chunk_granularity(s), "ablation_chunks.csv");
                emit(&ablations::timeout_margin(s), "ablation_timeout.csv");
                emit(
                    &ablations::parity_conditioning(s),
                    "ablation_conditioning.csv",
                );
                emit(&ablations::predictor_choice(s), "ablation_predictor.csv");
            },
        },
    ]
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let reg = registry();
        let mut names: Vec<&str> = reg
            .iter()
            .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate experiment selector");
    }

    #[test]
    fn serve_is_registered() {
        assert!(registry().iter().any(|e| e.name == "serve"));
    }
}
