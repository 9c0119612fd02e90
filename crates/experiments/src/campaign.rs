//! The `campaign` binary: sharded, resumable plan-comparison campaigns.
//!
//! While the classic binaries (`table1`, `fig5`, `fig6`, `ablation`) run
//! their whole matrix in one process, the `campaign` binary exposes the
//! [`alic_core::runner`] layer directly:
//!
//! ```text
//! campaign [quick|laptop|full] [--model m1,m2,...] [--kernels k1,k2,...]
//!          [--dir PATH] [--shard i/n] [--resume] [--merge]
//!          [--chaos seed:site=rate[xbudget],...] [--warm-store PATH]
//! ```
//!
//! * Without `--shard`/`--merge`, it runs every unit of the matrix,
//!   checkpointing each into the ledger directory, then writes the merged
//!   `report.json`.
//! * `--shard i/n` runs only the i-th of `n` contiguous unit slices (other
//!   shards can run in other processes or on other machines against copies
//!   of the same ledger directory; copy the `units/` files together before
//!   merging).
//! * `--resume` continues a killed or partial campaign, skipping every unit
//!   already checkpointed.
//! * `--merge` performs the pure merge step only: loads all unit records,
//!   assembles the report, writes `report.json` and prints the per-model
//!   Table 1 summaries.
//!
//! The ledger directory comes from `--dir`, then the `ALIC_CAMPAIGN_DIR`
//! environment variable, then `target/campaign`. Reports are byte-identical
//! regardless of sharding, kill points, resumes or thread counts — the
//! invariant enforced by `tests/campaign_resume.rs` and the CI
//! `campaign-smoke` job.
//!
//! Units always run through the runner's one self-healing executor
//! ([`runner::execute_units`], driven against the ledger by
//! [`runner::heal_campaign`]): panicking units are isolated and re-executed,
//! corrupt on-disk records are quarantined to `*.corrupt` and regenerated.
//! The `--warm-store` harvest, which re-executes one unit per kernel × model
//! to capture its trained surrogate, goes through the same executor.
//! `--chaos seed:spec` (or the `ALIC_CHAOS` environment variable) installs a
//! deterministic fault-injection plan — see [`alic_core::fault`] — under
//! which the healed report must still come out byte-identical; the CI
//! `chaos-smoke` job holds the binary to exactly that.

use std::path::PathBuf;

use alic_core::runner::{self, CampaignLedger, CampaignReport, CampaignSpec};
use alic_core::{CoreError, Result};
use alic_model::traits::ActiveSurrogate;
use alic_model::SurrogateSpec;
use alic_sim::spapt::{spapt_kernel, SpaptKernel};

use crate::options::parse_model;
use crate::report::{format_sci, TextTable};
use crate::scale::Scale;
use crate::table1;

/// Parsed invocation options of the `campaign` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// How much work each unit performs.
    pub scale: Scale,
    /// The surrogate families of the matrix.
    pub models: Vec<SurrogateSpec>,
    /// The kernels of the matrix.
    pub kernels: Vec<SpaptKernel>,
    /// The campaign ledger directory.
    pub dir: PathBuf,
    /// Run only this 1-based shard of the unit range.
    pub shard: Option<(usize, usize)>,
    /// Skip units already checkpointed instead of refusing to reuse the
    /// ledger.
    pub resume: bool,
    /// Merge checkpointed units into `report.json` instead of running any.
    pub merge: bool,
    /// Deterministic fault-injection plan to install for the run
    /// (`--chaos seed:site=rate[xbudget],...`).
    pub chaos: Option<alic_core::fault::FaultPlan>,
    /// Harvest one trained surrogate per kernel × model into this
    /// warm-start store after a full (non-shard) run completes
    /// (`--warm-store PATH`). Stored under the `"campaign"` noise regime,
    /// so campaign-featurized surrogates never seed serve sessions.
    pub warm_store: Option<PathBuf>,
}

impl CampaignOptions {
    /// Parses the process arguments and environment, exiting with a usage
    /// message on invalid input.
    pub fn from_args() -> Self {
        let args = std::env::args().skip(1);
        let result = Self::parse_with_env(
            args,
            std::env::var("ALIC_SCALE").ok().as_deref(),
            std::env::var("ALIC_MODEL").ok().as_deref(),
            std::env::var("ALIC_CAMPAIGN_DIR").ok().as_deref(),
        );
        match result {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: campaign [quick|laptop|full] [--model {}[,...]] \
                     [--kernels adi,mvt,...] [--dir PATH] [--shard i/n] [--resume] [--merge] \
                     [--chaos seed:site=rate[xbudget],...] [--warm-store PATH]",
                    SurrogateSpec::names().join("|")
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument stream against explicit environment values (the
    /// hermetic core of [`CampaignOptions::from_args`]).
    ///
    /// # Errors
    ///
    /// Returns a usage message when an argument or environment value is not
    /// understood.
    pub fn parse_with_env(
        args: impl IntoIterator<Item = String>,
        scale_env: Option<&str>,
        model_env: Option<&str>,
        dir_env: Option<&str>,
    ) -> std::result::Result<Self, String> {
        let mut scale: Option<Scale> = None;
        let mut models: Vec<SurrogateSpec> = Vec::new();
        let mut kernels: Vec<SpaptKernel> = Vec::new();
        let mut dir: Option<PathBuf> = None;
        let mut shard: Option<(usize, usize)> = None;
        let mut resume = false;
        let mut merge = false;
        let mut chaos: Option<alic_core::fault::FaultPlan> = None;
        let mut warm_store: Option<PathBuf> = None;

        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_of =
                |name: &str, arg: &str| -> std::result::Result<Option<String>, String> {
                    if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
                        return Ok(Some(v.to_string()));
                    }
                    if arg == name {
                        return match args.next() {
                            Some(v) => Ok(Some(v)),
                            None => Err(format!("{name} needs a value")),
                        };
                    }
                    Ok(None)
                };
            if let Some(list) = value_of("--model", &arg)? {
                for name in list.split(',').filter(|n| !n.is_empty()) {
                    let model = parse_model(name, "")?;
                    // A duplicate axis entry would double the unit matrix
                    // and double-count rows in the name-keyed report tables.
                    if models.contains(&model) {
                        return Err(format!("model '{}' listed more than once", model.name()));
                    }
                    models.push(model);
                }
            } else if let Some(list) = value_of("--kernels", &arg)? {
                for name in list.split(',').filter(|n| !n.is_empty()) {
                    let kernel = SpaptKernel::from_name(name)
                        .ok_or_else(|| format!("unknown kernel '{name}'"))?;
                    if kernels.contains(&kernel) {
                        return Err(format!("kernel '{}' listed more than once", kernel.name()));
                    }
                    kernels.push(kernel);
                }
            } else if let Some(path) = value_of("--dir", &arg)? {
                dir = Some(PathBuf::from(path));
            } else if let Some(text) = value_of("--shard", &arg)? {
                let parts: Vec<&str> = text.split('/').collect();
                let parsed = match parts.as_slice() {
                    [i, n] => i
                        .parse::<usize>()
                        .ok()
                        .zip(n.parse::<usize>().ok())
                        .filter(|&(i, n)| i >= 1 && n >= 1 && i <= n),
                    _ => None,
                };
                shard = Some(
                    parsed.ok_or_else(|| format!("--shard needs the form i/n, got '{text}'"))?,
                );
            } else if let Some(path) = value_of("--warm-store", &arg)? {
                warm_store = Some(PathBuf::from(path));
            } else if let Some(text) = value_of("--chaos", &arg)? {
                chaos = Some(
                    alic_core::fault::FaultPlan::parse(&text)
                        .map_err(|e| format!("--chaos: {e}"))?,
                );
            } else if arg == "--resume" {
                resume = true;
            } else if arg == "--merge" {
                merge = true;
            } else if let Some(s) = Scale::from_name(&arg) {
                scale = Some(s);
            } else {
                return Err(format!("unknown argument '{arg}'"));
            }
        }

        if scale.is_none() {
            if let Some(value) = scale_env {
                scale = Some(
                    Scale::from_name(value)
                        .ok_or_else(|| format!("unknown scale '{value}' in ALIC_SCALE"))?,
                );
            }
        }
        let scale = scale.unwrap_or_default();
        if models.is_empty() {
            if let Some(value) = model_env {
                models.push(parse_model(value, " in ALIC_MODEL")?);
            }
        }
        if models.is_empty() {
            models.push(SurrogateSpec::default());
        }
        if kernels.is_empty() {
            kernels = SpaptKernel::all().to_vec();
        }
        let dir = dir
            .or_else(|| dir_env.map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("target").join("campaign"));

        Ok(CampaignOptions {
            scale,
            models,
            kernels,
            dir,
            shard,
            resume,
            merge,
            chaos,
            warm_store,
        })
    }

    /// The campaign matrix these options describe: the selected kernels ×
    /// the selected models (hyper-parameters adjusted to the scale) over the
    /// scale's comparison preset.
    pub fn campaign_spec(&self) -> CampaignSpec {
        CampaignSpec::new(
            self.kernels.iter().map(|&k| spapt_kernel(k)).collect(),
            self.models
                .iter()
                .map(|&m| self.scale.scaled_model(m))
                .collect(),
            self.scale.comparison_config(),
        )
    }

    /// Human-readable banner line.
    pub fn describe(&self) -> String {
        let models: Vec<&str> = self.models.iter().map(|m| m.name()).collect();
        format!(
            "{} scale, {} kernels, models [{}]",
            self.scale,
            self.kernels.len(),
            models.join(", ")
        )
    }
}

/// Executes one `campaign` invocation (run, shard, resume or merge).
///
/// # Errors
///
/// Returns campaign, learner or ledger errors; the binary prints them and
/// exits non-zero.
pub fn run(options: &CampaignOptions) -> Result<()> {
    // Deactivates an explicitly installed fault plane on every exit path, so
    // a library caller's next invocation starts clean.
    struct PlaneOff;
    impl Drop for PlaneOff {
        fn drop(&mut self) {
            alic_core::fault::deactivate();
        }
    }
    let _chaos_guard = options.chaos.as_ref().map(|plan| {
        println!("[chaos plan installed: seed {}]", plan.seed());
        alic_core::fault::install(plan.clone());
        PlaneOff
    });

    let spec = options.campaign_spec();
    let ledger = CampaignLedger::open(&options.dir, &spec)?;
    println!(
        "== campaign: {} — {} units, ledger at {} ==",
        options.describe(),
        spec.unit_count(),
        ledger.dir().display()
    );

    if options.merge {
        let report = merge_and_write(&spec, &ledger)?;
        print_report(&spec, &report);
        return Ok(());
    }

    let completed = ledger.completed()?;
    let targets: Vec<usize> = match options.shard {
        Some((shard, of)) => spec.shard(shard, of)?,
        None => (0..spec.unit_count()).collect(),
    };
    let already_done = targets.iter().filter(|i| completed.contains(i)).count();
    if already_done > 0 && !options.resume {
        return Err(CoreError::Campaign(format!(
            "ledger already holds {already_done} of this invocation's {} units; \
             pass --resume to continue it or point --dir at a fresh directory",
            targets.len()
        )));
    }
    let to_run: Vec<usize> = targets
        .iter()
        .copied()
        .filter(|i| !completed.contains(i))
        .collect();
    println!(
        "running {} units ({already_done} of {} already checkpointed)",
        to_run.len(),
        targets.len()
    );
    let outcome = runner::heal_campaign(&spec, &ledger, &to_run)?;
    println!(
        "checkpointed {} units in {} healing pass(es) ({} corrupt record(s) quarantined, \
         {} stale tmp file(s) swept)",
        to_run.len() - outcome.failures.len(),
        outcome.passes,
        outcome.quarantined,
        outcome.swept_tmp
    );
    if !outcome.is_healed() {
        for failure in &outcome.failures {
            eprintln!(
                "unit {} ({}, {}): {} [after {} attempts]",
                failure.index, failure.kernel, failure.model, failure.error, failure.attempts
            );
        }
        return Err(CoreError::Campaign(format!(
            "{} unit(s) still failing after {} healing passes",
            outcome.failures.len(),
            outcome.passes
        )));
    }

    if options.shard.is_none() {
        // Opt-in warm-store harvest: re-run one representative unit per
        // kernel × model capturing its trained surrogate. Units are
        // deterministic, so this reproduces exactly what the campaign
        // already measured.
        if let Some(path) = &options.warm_store {
            harvest_warm_store(&spec, path)?;
        }
        // The whole matrix is complete: merge immediately, exactly as a
        // later `--merge` invocation would (the report is assembled from the
        // on-disk records either way, so the bytes cannot differ).
        let report = merge_and_write(&spec, &ledger)?;
        print_report(&spec, &report);
    } else {
        println!(
            "shard complete; once every shard has finished, assemble the report with \
             `campaign --merge --dir {}`",
            ledger.dir().display()
        );
    }
    Ok(())
}

/// Trains (deterministically re-executes) one representative unit per
/// kernel × model — plan 0, repetition 0 — through the one executor
/// [`runner::execute_units`], so harvest units retry and isolate panics like
/// every other unit, and offers each trained surrogate to the warm store
/// under the `"campaign"` noise regime. Families without snapshot support
/// are skipped silently.
fn harvest_warm_store(spec: &CampaignSpec, path: &std::path::Path) -> Result<()> {
    use alic_core::warmstore::{WarmKey, WarmStore};
    use alic_model::snapshot::Snapshot;
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    // Plan 0, repetition 0 is the first unit of each (kernel, model) cell.
    let cell_units = spec.base.plans.len() * spec.base.repetitions;
    let cells = spec.kernels.len() * spec.models.len();
    let indices: Vec<usize> = (0..cells).map(|cell| cell * cell_units).collect();
    // Snapshots keyed by unit index; a retried unit overwrites its own
    // entry with identical bytes.
    let snapshots: Mutex<BTreeMap<usize, (usize, Snapshot)>> = Mutex::default();
    let capture = |record: &runner::UnitRecord, model: &dyn ActiveSurrogate| {
        if let Ok(snapshot) = model.snapshot() {
            snapshots
                .lock()
                .expect("snapshot map poisoned")
                .insert(record.index, (model.observation_count(), snapshot));
        }
        Ok(())
    };
    runner::execute_units(spec, &indices, &capture)?.complete()?;

    // Insert in index (kernel-major) order: the store's two-slot
    // displacement depends on insertion order.
    let mut store = WarmStore::open(path);
    let mut harvested = 0usize;
    for (index, (observations, snapshot)) in snapshots.into_inner().expect("snapshot map poisoned")
    {
        let key = spec.unit(index);
        let kernel = &spec.kernels[key.kernel];
        let model = spec.models[key.model].name();
        let warm_key = WarmKey::new(kernel.name(), kernel.space(), model, "campaign");
        if store.insert(&warm_key, observations, snapshot) {
            harvested += 1;
        }
    }
    store.save()?;
    println!(
        "[warm store {}: {harvested} surrogate(s) harvested, {} resident]",
        path.display(),
        store.len()
    );
    Ok(())
}

fn merge_and_write(spec: &CampaignSpec, ledger: &CampaignLedger) -> Result<CampaignReport> {
    let records = ledger.load_all(spec)?;
    let report = runner::assemble_report(spec, records)?;
    let path = ledger.write_report(&report)?;
    println!("[report written to {}]", path.display());
    Ok(report)
}

fn print_report(spec: &CampaignSpec, report: &CampaignReport) {
    for model in &report.models {
        let outcomes: Vec<_> = report
            .outcomes_for_model(model)
            .into_iter()
            .cloned()
            .collect();
        let table1_result = table1::rows_from_outcomes(&outcomes, &spec.base);
        let mut table = TextTable::new(vec![
            "benchmark",
            "lowest common RMSE (s)",
            "baseline cost (s)",
            "variable cost (s)",
            "speed-up",
        ]);
        for row in &table1_result.rows {
            table.push_row(vec![
                row.benchmark.clone(),
                format_sci(row.lowest_common_rmse),
                row.baseline_cost
                    .map(format_sci)
                    .unwrap_or_else(|| "-".into()),
                row.variable_cost
                    .map(format_sci)
                    .unwrap_or_else(|| "-".into()),
                row.speedup
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        println!("--- model: {model} ---");
        println!("{table}");
        match table1_result.geometric_mean_speedup {
            Some(gm) => println!("geometric mean speed-up: {gm:.2}x\n"),
            None => println!("geometric mean speed-up: not available\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> std::result::Result<CampaignOptions, String> {
        CampaignOptions::parse_with_env(strings(args), None, None, None)
    }

    #[test]
    fn defaults_cover_the_full_paper_matrix() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.scale, Scale::Laptop);
        assert_eq!(options.kernels.len(), 11);
        assert_eq!(options.models.len(), 1);
        assert_eq!(options.models[0].name(), "dynatree");
        assert_eq!(options.dir, PathBuf::from("target").join("campaign"));
        assert!(!options.resume && !options.merge && options.shard.is_none());
    }

    #[test]
    fn parses_every_flag() {
        let options = parse(&[
            "quick",
            "--model",
            "cart,gp",
            "--kernels=mvt,lu",
            "--dir",
            "/tmp/x",
            "--shard",
            "2/3",
            "--resume",
            "--merge",
            "--chaos",
            "7:torn=0.5x3,panic=0.1",
        ])
        .unwrap();
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(
            options.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            vec!["cart", "gp"]
        );
        assert_eq!(options.kernels, vec![SpaptKernel::Mvt, SpaptKernel::Lu]);
        assert_eq!(options.dir, PathBuf::from("/tmp/x"));
        assert_eq!(options.shard, Some((2, 3)));
        assert!(options.resume && options.merge);
        let plan = options.chaos.unwrap();
        assert_eq!(plan.seed(), 7);
        use alic_core::fault::FaultSite;
        assert_eq!(plan.site(FaultSite::TornWrite).unwrap().budget, Some(3));
        assert!(plan.site(FaultSite::UnitPanic).is_some());
        assert!(plan.site(FaultSite::WriteIo).is_none());
    }

    #[test]
    fn environment_fills_unset_options() {
        let options = CampaignOptions::parse_with_env(
            strings(&[]),
            Some("quick"),
            Some("knn"),
            Some("/var/campaigns"),
        )
        .unwrap();
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.models[0].name(), "knn");
        assert_eq!(options.dir, PathBuf::from("/var/campaigns"));
    }

    #[test]
    fn invalid_input_is_rejected() {
        assert!(parse(&["--shard", "0/3"]).is_err());
        assert!(parse(&["--shard", "4/3"]).is_err());
        assert!(parse(&["--shard", "nope"]).is_err());
        assert!(parse(&["--model", "bogus"]).is_err());
        assert!(parse(&["--kernels", "bogus"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--dir"]).is_err());
        assert!(parse(&["--chaos", "not-a-plan"]).is_err());
        assert!(parse(&["--chaos", "7:torn=1.5"]).is_err());
    }

    #[test]
    fn duplicate_axis_entries_are_rejected() {
        let err = parse(&["--model", "dynatree,dynatree"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        // Aliases of the same family count as duplicates too.
        let err = parse(&["--model", "gp,gaussian-process"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["--kernels", "mvt", "--kernels", "mvt"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn campaign_spec_scales_models_and_keeps_kernel_order() {
        let options = parse(&["quick", "--kernels", "gemver,adi", "--model", "dynatree"]).unwrap();
        let spec = options.campaign_spec();
        assert_eq!(spec.kernels[0].name(), "gemver");
        assert_eq!(spec.kernels[1].name(), "adi");
        match spec.models[0] {
            SurrogateSpec::DynaTree(config) => {
                assert_eq!(config.particles, Scale::Quick.particles())
            }
            ref other => panic!("expected a scaled dynatree, got {other}"),
        }
        // 2 kernels x 1 model.
        assert_eq!(
            spec.unit_count(),
            2 * spec.base.plans.len() * spec.base.repetitions
        );
    }

    #[test]
    fn sharded_kill_resume_merge_is_byte_identical_to_single_process() {
        // End-to-end through the CLI layer: a clean single-process campaign
        // versus shard 1/2 (killed after its first shard), a resume, and a
        // merge, in two separate ledger directories.
        let base = std::env::temp_dir().join(format!("alic-campaign-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let clean_dir = base.join("clean");
        let sharded_dir = base.join("sharded");
        let common = ["quick", "--kernels", "mvt,lu", "--model", "dynatree,mean"];

        let opts = |extra: &[&str], dir: &PathBuf| {
            let mut args = strings(&common);
            args.extend(strings(extra));
            args.push("--dir".to_string());
            args.push(dir.display().to_string());
            CampaignOptions::parse_with_env(args, None, None, None).unwrap()
        };

        run(&opts(&[], &clean_dir)).unwrap();

        run(&opts(&["--shard", "1/2"], &sharded_dir)).unwrap();
        run(&opts(&["--resume"], &sharded_dir)).unwrap();
        run(&opts(&["--merge"], &sharded_dir)).unwrap();

        let clean = std::fs::read_to_string(clean_dir.join("report.json")).unwrap();
        let sharded = std::fs::read_to_string(sharded_dir.join("report.json")).unwrap();
        assert_eq!(clean, sharded);
        assert!(clean.starts_with("{\"schema\":\"alic-campaign-report/v1\""));

        // Re-running the finished campaign without --resume is refused.
        let err = run(&opts(&[], &clean_dir)).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");

        std::fs::remove_dir_all(&base).unwrap();
    }
}
