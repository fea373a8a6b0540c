//! Minimal `--flag value` argument parsing (no external dependencies: the
//! build is offline, see ARCHITECTURE.md's paragraph on vendored stubs).

use std::collections::BTreeMap;

/// Parsed `--flag value` pairs. Flags are normalized without the leading
/// dashes; single-letter flags (`-k`) are accepted too.
#[derive(Debug, Default, Clone)]
pub struct ArgMap {
    values: BTreeMap<String, String>,
}

impl ArgMap {
    /// Parses an argument stream. Every flag must take a value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix('-') else {
                return Err(format!("expected a --flag, found {arg:?}"));
            };
            let name = name.trim_start_matches('-');
            if name.is_empty() {
                return Err("empty flag".into());
            }
            let Some(value) = args.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            values.insert(name.to_string(), value);
        }
        Ok(Self { values })
    }

    /// Rejects the first flag outside `accepted`: commands read flags by
    /// name, so an unread flag (a typo, a removed option) would otherwise
    /// be silently ignored and the command would run on a default.
    pub fn reject_unknown(&self, accepted: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !accepted.contains(&k.as_str())) {
            None => Ok(()),
            Some(flag) => {
                let list: Vec<String> = accepted.iter().map(|f| dashed(f)).collect();
                Err(format!(
                    "unknown flag {} (accepted: {})",
                    dashed(flag),
                    list.join(" ")
                ))
            }
        }
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// A parsed `f64` flag with a default, rejected unless `valid` holds
    /// for it; the message names the range as `expected`. NaN fails every
    /// comparison, so a range test rejects it too.
    pub fn checked_f64(
        &self,
        name: &str,
        default: f64,
        expected: &str,
        valid: impl Fn(f64) -> bool,
    ) -> Result<f64, String> {
        let value: f64 = self.parsed_or(name, default)?;
        if valid(value) {
            Ok(value)
        } else {
            Err(format!("flag --{name}: {value} is not {expected}"))
        }
    }
}

/// A flag name as typed: `-k` for one letter, `--name` otherwise.
pub fn dashed(name: &str) -> String {
    if name.len() == 1 {
        format!("-{name}")
    } else {
        format!("--{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ArgMap, String> {
        ArgMap::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_values() {
        let a = parse(&["--trace", "t.csv", "-k", "16", "--eta", "4"]).unwrap();
        assert_eq!(a.get("trace"), Some("t.csv"));
        assert_eq!(a.parsed_or::<usize>("k", 0).unwrap(), 16);
        assert_eq!(a.parsed_or::<f64>("eta", 0.0).unwrap(), 4.0);
        assert_eq!(a.parsed_or::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_positional() {
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["positional"]).is_err());
    }

    #[test]
    fn required_and_bad_parse() {
        let a = parse(&["--k", "abc"]).unwrap();
        assert!(a.required("nope").is_err());
        assert!(a.parsed_or::<usize>("k", 0).is_err());
    }

    #[test]
    fn unknown_flags_are_named() {
        let a = parse(&["--shard", "4", "-k", "2"]).unwrap();
        assert!(a.reject_unknown(&["shard", "k"]).is_ok());
        let err = a.reject_unknown(&["shards", "k"]).unwrap_err();
        assert!(err.starts_with("unknown flag --shard "), "{err}");
        assert!(err.contains("--shards -k"), "{err}");
    }
}
