//! The one reader for the `CQ_*` environment knobs.
//!
//! Every knob keeps one contract. Unset means "use the default". A blank
//! (empty or all-whitespace) value means unset too, except for a knob
//! read with [`Blank::Invalid`]. Any other value must parse with the
//! owning type's `parse`, and a non-UTF-8 value never does. A value that
//! does not parse aborts the process with a [`KnobError`] naming the
//! variable: a typo that silently selected the default would make an A/B
//! run (fp32 vs int8, Naive vs Fast, default vs searched mapping)
//! compare a configuration against itself.
//!
//! Owners resolve their knob once, lazily, and binaries force every knob
//! at startup so a typo aborts before any work. DESIGN.md lists the ten
//! knobs with their accepted values and defaults.

use std::ffi::OsString;
use std::fmt;

/// A `CQ_*` variable set to a value its owner does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The variable, e.g. `CQ_THREADS`.
    pub name: &'static str,
    /// Its value, lossily decoded when it is not UTF-8.
    pub value: String,
    /// What the owner accepts.
    pub expected: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} value {:?}: expected {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for KnobError {}

/// How a blank value is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blank {
    /// A blank value means the knob is unset.
    Unset,
    /// A blank value is an error (a blank path is never what was meant).
    Invalid,
}

/// Reads one raw knob value: `None` when unset (or blank, under
/// [`Blank::Unset`]), the parsed value when `parse` accepts it, and a
/// [`KnobError`] otherwise. Pure, so the contract is testable without
/// touching the process environment.
pub fn parse_knob<T>(
    name: &'static str,
    raw: Option<OsString>,
    blank: Blank,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, KnobError> {
    let Some(raw) = raw else { return Ok(None) };
    let error = |value: String| KnobError {
        name,
        value,
        expected,
    };
    let value = raw
        .into_string()
        .map_err(|raw| error(raw.to_string_lossy().into_owned()))?;
    if value.trim().is_empty() {
        return match blank {
            Blank::Unset => Ok(None),
            Blank::Invalid => Err(error(value)),
        };
    }
    match parse(&value) {
        Some(v) => Ok(Some(v)),
        None => Err(error(value)),
    }
}

/// [`parse_knob`] on the environment variable `name`.
///
/// # Panics
///
/// With the [`KnobError`] when the value is set but not accepted.
pub fn knob<T>(
    name: &'static str,
    blank: Blank,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    parse_knob(name, std::env::var_os(name), blank, expected, parse)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Parses a positive integer, surrounding whitespace allowed (the
/// `CQ_THREADS` and `CQ_HWCACHE_CAP` spelling).
pub fn positive(s: &str) -> Option<usize> {
    s.trim().parse().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_knob_contract() {
        // (raw value, blank rule, the parsed value or `None` for an error)
        let rows = [
            (None, Blank::Unset, Some(None)),
            (None, Blank::Invalid, Some(None)),
            (Some(""), Blank::Unset, Some(None)),
            (Some(" \t"), Blank::Unset, Some(None)),
            (Some(""), Blank::Invalid, None),
            (Some(" \t"), Blank::Invalid, None),
            (Some("4"), Blank::Unset, Some(Some(4))),
            (Some(" 16 "), Blank::Invalid, Some(Some(16))),
            (Some("fuor"), Blank::Unset, None),
            (Some("0"), Blank::Unset, None),
            (Some("-2"), Blank::Unset, None),
            (Some("3.5"), Blank::Unset, None),
            (Some("1e6"), Blank::Unset, None),
            (Some("4 threads"), Blank::Unset, None),
        ];
        for (raw, blank, want) in rows {
            let got = parse_knob(
                "CQ_TEST",
                raw.map(OsString::from),
                blank,
                "a positive integer",
                positive,
            );
            let want = want.ok_or_else(|| KnobError {
                name: "CQ_TEST",
                value: raw.expect("an error needs a value").into(),
                expected: "a positive integer",
            });
            assert_eq!(got, want, "{raw:?} under {blank:?}");
        }
        // A blank value never reaches `parse`, even one that accepts it.
        let path = |s: &str| Some(s.to_string());
        let blank = |rule| parse_knob("CQ_TEST", Some(" ".into()), rule, "a path", path);
        assert_eq!(blank(Blank::Unset), Ok(None));
        assert!(blank(Blank::Invalid).is_err());
        let err = parse_knob("CQ_TEST", Some("fuor".into()), Blank::Unset, "4", positive);
        assert_eq!(
            err.unwrap_err().to_string(),
            "invalid CQ_TEST value \"fuor\": expected 4"
        );
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_errors() {
        use std::os::unix::ffi::OsStringExt;
        for blank in [Blank::Unset, Blank::Invalid] {
            let raw = OsString::from_vec(vec![b'4', 0xff]);
            let err = parse_knob("CQ_TEST", Some(raw), blank, "4", positive).unwrap_err();
            assert_eq!(err.value, "4\u{fffd}");
        }
    }
}
