//! Hand-rolled deterministic JSON building blocks (the workspace is
//! dependency-free by design).
//!
//! Everything snapshot-shaped in this repo renders through
//! [`fmt_f64`] / [`escape`] so float formatting and string escaping
//! are byte-stable across runs, and through [`JsonObj`] for the
//! one-line machine-readable summaries the example binaries print.
//! The committed campaign artifacts (`results/*_campaign.json`,
//! `results/dse_frontier.json`) are laid out by [`artifact`], with
//! floats at the fixed precision of [`fixed6`].

/// Renders an `f64` deterministically: Rust's shortest-round-trip
/// `Display`, with non-finite values mapped to `null` (JSON has no
/// NaN/inf) and negative zero normalized to `0`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let v = if v == 0.0 { 0.0 } else { v }; // collapse -0.0
    let s = format!("{v}");
    // `Display` omits ".0" for integral floats; that is still valid
    // JSON and stable, so keep it as-is.
    s
}

/// Renders an `f64` at the campaign artifacts' fixed 6 decimals, with
/// non-finite values mapped to `null`. Fixed precision is lossless at
/// the magnitudes the campaigns report and avoids shortest-repr
/// jitter; anything that must agree with a committed artifact (such
/// as DSE's frontier flags) rounds through this function.
pub fn fixed6(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in JSON (quotes added by callers'
/// format strings are *not* included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tiny ordered JSON-object builder for one-line summaries:
/// fields render in insertion order, floats through [`fmt_f64`].
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), fmt_f64(value)));
        self
    }

    /// Adds a float field at the fixed precision of [`fixed6`].
    pub fn fixed(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), fixed6(value)));
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Renders the object on one line.
    pub fn finish(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Lays out a campaign artifact: the `campaign` header object on one
/// line, then one row object per line in the `rows_key` array.
///
/// ```text
/// {
///   "campaign": {...},
///   "cells": [
///     {...},
///     {...}
///   ]
/// }
/// ```
pub fn artifact(
    campaign: JsonObj,
    rows_key: &str,
    rows: impl IntoIterator<Item = JsonObj>,
) -> String {
    let rows: Vec<String> = rows
        .into_iter()
        .map(|r| format!("    {}", r.finish()))
        .collect();
    let mut body = rows.join(",\n");
    if !body.is_empty() {
        body.push('\n');
    }
    format!(
        "{{\n  \"campaign\": {},\n  \"{}\": [\n{body}  ]\n}}\n",
        campaign.finish(),
        escape(rows_key)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(-0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fixed6(2.0), "2.000000");
        assert_eq!(fixed6(1.0 / 3.0), "0.333333");
        assert_eq!(fixed6(f64::NAN), "null");
        assert_eq!(fixed6(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn obj_preserves_insertion_order() {
        let line = JsonObj::new()
            .str("example", "quickstart")
            .u64("seed", 42)
            .f64("psnr_db", 38.25)
            .bool("ok", true)
            .fixed("util", 0.5)
            .raw("frac", "[1, 2]".to_owned())
            .finish();
        assert_eq!(
            line,
            "{\"example\": \"quickstart\", \"seed\": 42, \"psnr_db\": 38.25, \"ok\": true, \
             \"util\": 0.500000, \"frac\": [1, 2]}"
        );
    }
}
