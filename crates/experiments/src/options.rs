//! Shared command-line / environment options for the experiment binaries.
//!
//! Every binary accepts the same interface:
//!
//! * a positional scale name (`quick`, `laptop`, `full`), falling back to the
//!   `ALIC_SCALE` environment variable and then to the laptop default, and
//! * `--model <name>` (or `--model=<name>`), falling back to `ALIC_MODEL`
//!   and then to the paper's dynamic tree, selecting the surrogate family
//!   every learner in the protocol is built from.
//!
//! Model names are those of
//! [`SurrogateSpec::names`](alic_model::SurrogateSpec::names):
//! `dynatree`, `cart`, `gp`, `knn` and `mean`.

use alic_core::experiment::ComparisonConfig;
use alic_model::SurrogateSpec;

use crate::scale::Scale;

/// Parsed invocation options of one experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOptions {
    /// How much work to perform.
    pub scale: Scale,
    /// Which surrogate family to build learners from.
    pub model: SurrogateSpec,
}

impl RunOptions {
    /// Parses the process arguments and environment, exiting with a usage
    /// message on invalid input.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: <binary> [quick|laptop|full] [--model {}]",
                    SurrogateSpec::names().join("|")
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument stream; the process environment variables
    /// `ALIC_SCALE` and `ALIC_MODEL` fill anything the arguments leave unset.
    ///
    /// # Errors
    ///
    /// Returns a usage message when an argument or environment value is not
    /// understood.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        Self::parse_with_env(
            args,
            std::env::var("ALIC_SCALE").ok().as_deref(),
            std::env::var("ALIC_MODEL").ok().as_deref(),
        )
    }

    /// Parses an argument stream against explicit environment values (the
    /// hermetic core of [`RunOptions::parse`], independent of the real
    /// process environment).
    ///
    /// # Errors
    ///
    /// Returns a usage message when an argument or environment value is not
    /// understood.
    pub fn parse_with_env(
        args: impl IntoIterator<Item = String>,
        scale_env: Option<&str>,
        model_env: Option<&str>,
    ) -> Result<Self, String> {
        let mut scale: Option<Scale> = None;
        let mut model: Option<SurrogateSpec> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(name) = arg
                .strip_prefix("--model=")
                .map(str::to_string)
                .or_else(|| (arg == "--model").then(|| args.next().unwrap_or_default()))
            {
                model = Some(parse_model(&name, "")?);
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
        if model.is_none() {
            if let Some(value) = model_env {
                model = Some(parse_model(value, " in ALIC_MODEL")?);
            }
        }
        Ok(RunOptions {
            scale: scale.unwrap_or_default(),
            model: model.unwrap_or_default(),
        })
    }

    /// The plan-comparison configuration for these options: the scale preset
    /// with the selected surrogate (hyper-parameters adjusted to the scale,
    /// see [`Scale::scaled_model`]).
    pub fn comparison_config(&self) -> ComparisonConfig {
        self.scale.comparison_config_for(self.model)
    }

    /// Human-readable summary for banner lines, e.g. `laptop scale, dynatree
    /// model`.
    pub fn describe(&self) -> String {
        format!("{} scale, {} model", self.scale, self.model)
    }
}

/// Parses a model-family name; the error names the offending `source` and
/// lists every valid name.
pub(crate) fn parse_model(name: &str, source: &str) -> Result<SurrogateSpec, String> {
    SurrogateSpec::from_name(name).ok_or_else(|| {
        format!(
            "unknown model '{name}'{source} (expected one of: {})",
            SurrogateSpec::names().join("|")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Hermetic parse: explicit (empty) environment, independent of whatever
    /// ALIC_SCALE / ALIC_MODEL the developer has exported.
    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        RunOptions::parse_with_env(strings(args), None, None)
    }

    #[test]
    fn defaults_when_no_arguments() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.scale, Scale::Laptop);
        assert_eq!(options.model.name(), "dynatree");
    }

    #[test]
    fn parses_scale_and_model_in_any_order() {
        let a = parse(&["quick", "--model", "cart"]).unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.model.name(), "cart");
        let b = parse(&["--model=gp", "full"]).unwrap();
        assert_eq!(b.scale, Scale::Full);
        assert_eq!(b.model.name(), "gp");
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&["--model", "bogus"]).is_err());
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["--model"]).is_err());
        // The retired sparse GP is an unknown name like any other.
        let err = parse(&["--model", "sgp"]).unwrap_err();
        assert_eq!(
            err,
            "unknown model 'sgp' (expected one of: dynatree|cart|gp|knn|mean)"
        );
    }

    #[test]
    fn environment_fills_unset_options_and_arguments_win() {
        let env = RunOptions::parse_with_env(strings(&[]), Some("full"), Some("knn")).unwrap();
        assert_eq!(env.scale, Scale::Full);
        assert_eq!(env.model.name(), "knn");
        let args_win = RunOptions::parse_with_env(
            strings(&["quick", "--model=cart"]),
            Some("full"),
            Some("knn"),
        )
        .unwrap();
        assert_eq!(args_win.scale, Scale::Quick);
        assert_eq!(args_win.model.name(), "cart");
        assert!(RunOptions::parse_with_env(strings(&[]), Some("bogus"), None).is_err());
        assert!(RunOptions::parse_with_env(strings(&[]), None, Some("bogus")).is_err());
        assert_eq!(
            RunOptions::parse_with_env(strings(&[]), None, Some("sgp")).unwrap_err(),
            "unknown model 'sgp' in ALIC_MODEL (expected one of: dynatree|cart|gp|knn|mean)"
        );
    }

    #[test]
    fn every_model_name_is_selectable() {
        for &name in SurrogateSpec::names() {
            let options = parse(&["quick", "--model", name]).unwrap();
            assert_eq!(options.model.name(), name);
            let config = options.comparison_config();
            assert_eq!(config.model.name(), name);
        }
    }

    #[test]
    fn describe_mentions_both_axes() {
        let options = parse(&["quick", "--model", "knn"]).unwrap();
        assert_eq!(options.describe(), "quick scale, knn model");
    }
}
