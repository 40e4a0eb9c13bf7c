//! Minimal flag parser shared by the subcommands.

use std::collections::HashMap;

/// Parsed positional arguments and `--flag [value]` options.
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, Option<String>>,
}

/// Flags that take a value (everything else is boolean).
const VALUE_FLAGS: &[&str] = &[
    "--seed", "--shots", "--threads", "--style", "--svg", "--dot", "--html",
    "--strategy", "--stimuli", "-o", "--threshold", "--node-limit",
    "--timeout-ms", "--metrics-out", "--trace-out", "--min-fidelity",
    "--snapshot-stride", "--histogram-out",
    "--port", "--host", "--cache-capacity",
    "--quota-shots", "--quota-body-bytes", "--quota-sessions",
    "--quota-nodes", "--quota-complex", "--quota-deadline-ms",
];

impl Args {
    /// Splits `argv` into positionals and flags.
    ///
    /// # Errors
    ///
    /// Reports unknown flags and missing flag values.
    pub fn parse(argv: &[String], known_flags: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if token.starts_with('-') && token != "-" {
                if !known_flags.contains(&token.as_str()) {
                    return Err(format!("unknown option `{token}`"));
                }
                if VALUE_FLAGS.contains(&token.as_str()) {
                    let value = argv.get(i + 1).ok_or_else(|| {
                        format!("option `{token}` needs a value")
                    })?;
                    flags.insert(token.clone(), Some(value.clone()));
                    i += 2;
                } else {
                    flags.insert(token.clone(), None);
                    i += 1;
                }
            } else {
                positional.push(token.clone());
                i += 1;
            }
        }
        Ok(Args { positional, flags })
    }

    /// `true` if the boolean flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The value of a value-flag, if present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).and_then(|v| v.as_deref())
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Reports unparsable numbers.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("option `{flag}`: cannot parse `{text}`")),
        }
    }
}

/// Builds package [`Limits`](qdd_core::Limits) from the shared
/// `--node-limit` / `--timeout-ms` flags.
///
/// # Errors
///
/// Reports unparsable or zero values.
pub fn parse_limits(args: &Args) -> Result<qdd_core::Limits, String> {
    let mut limits = qdd_core::Limits::default();
    if let Some(text) = args.value("--node-limit") {
        let n: usize = text
            .parse()
            .map_err(|_| format!("option `--node-limit`: cannot parse `{text}`"))?;
        if n == 0 {
            return Err("option `--node-limit`: must be at least 1".to_string());
        }
        limits.max_nodes = Some(n);
    }
    if let Some(text) = args.value("--timeout-ms") {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("option `--timeout-ms`: cannot parse `{text}`"))?;
        limits.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(text) = args.value("--min-fidelity") {
        let f: f64 = text
            .parse()
            .map_err(|_| format!("option `--min-fidelity`: cannot parse `{text}`"))?;
        if !(f > 0.0 && f <= 1.0) {
            return Err(format!(
                "option `--min-fidelity`: `{text}` is not in (0, 1]"
            ));
        }
        limits.min_fidelity = Some(f);
    }
    Ok(limits)
}

/// Resolves a `--style` name.
pub fn parse_style(name: Option<&str>) -> Result<qdd_viz::VizStyle, String> {
    match name.unwrap_or("classic") {
        "classic" => Ok(qdd_viz::VizStyle::classic()),
        "colored" => Ok(qdd_viz::VizStyle::colored()),
        "modern" => Ok(qdd_viz::VizStyle::modern()),
        other => Err(format!(
            "unknown style `{other}` (expected classic, colored, or modern)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_flags_split() {
        let a = Args::parse(
            &argv(&["file.qasm", "--seed", "7", "--state"]),
            &["--seed", "--state"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["file.qasm"]);
        assert_eq!(a.value("--seed"), Some("7"));
        assert!(a.has("--state"));
        assert_eq!(a.number("--seed", 0u64).unwrap(), 7);
        assert_eq!(a.number("--shots", 42u64).unwrap(), 42);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Args::parse(&argv(&["--bogus"]), &["--seed"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Args::parse(&argv(&["--seed"]), &["--seed"]).is_err());
    }

    #[test]
    fn min_fidelity_parses_and_validates() {
        let flags: &[&str] = &["--min-fidelity"];
        let ok = Args::parse(&argv(&["--min-fidelity", "0.9"]), flags).unwrap();
        assert_eq!(parse_limits(&ok).unwrap().min_fidelity, Some(0.9));
        for bad in ["0", "1.5", "nope"] {
            let parsed = Args::parse(&argv(&["--min-fidelity", bad]), flags).unwrap();
            assert!(parse_limits(&parsed).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn style_names() {
        assert!(parse_style(Some("colored")).is_ok());
        assert!(parse_style(Some("neon")).is_err());
    }
}
