//! Generated blocks in Markdown documents.
//!
//! EXPERIMENTS.md keeps every measured number between markers:
//!
//! ```text
//! <!-- gen:fig4 -->
//! ...rendered output of repro_all's `fig4` section...
//! <!-- /gen -->
//! ```
//!
//! `repro_all --doc PATH` rewrites each block with the verbatim rendered
//! text of the named section, inside a `text` code fence, so the doc
//! cannot drift from what the code computes: CI regenerates the blocks
//! and fails on any diff.

/// Opening marker prefix; the block name runs up to [`OPEN_END`].
const OPEN: &str = "<!-- gen:";
const OPEN_END: &str = " -->";
/// Closing marker.
const CLOSE: &str = "<!-- /gen -->";

/// Rewrites every generated block of `doc` with the body of the section
/// it names, and returns the new document. Text outside the blocks is
/// kept byte for byte. Fails on a block naming no section, a missing
/// closing marker, or a section that has no block (so a renamed section
/// cannot silently stop being checked).
pub fn fill(doc: &str, sections: &[(&str, String)]) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut used = vec![false; sections.len()];
    let mut rest = doc;
    while let Some(start) = rest.find(OPEN) {
        let after_open = &rest[start + OPEN.len()..];
        let name_len = after_open
            .find(OPEN_END)
            .ok_or_else(|| "unterminated gen marker".to_string())?;
        let name = &after_open[..name_len];
        let k = sections
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| format!("block gen:{name} names no section"))?;
        used[k] = true;
        let body_start = start + OPEN.len() + name_len + OPEN_END.len();
        let close = rest[body_start..]
            .find(CLOSE)
            .ok_or_else(|| format!("block gen:{name} has no {CLOSE}"))?;
        out.push_str(&rest[..body_start]);
        out.push_str("\n```text\n");
        out.push_str(sections[k].1.trim_end_matches('\n'));
        out.push_str("\n```\n");
        rest = &rest[body_start + close..];
    }
    out.push_str(rest);
    match sections.iter().zip(&used).find(|(_, &u)| !u) {
        Some(((name, _), _)) => Err(format!("section {name} has no gen:{name} block")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sections() -> Vec<(&'static str, String)> {
        vec![("a", "A1\nA2\n\n".to_string()), ("b", "B".to_string())]
    }

    #[test]
    fn blocks_are_rewritten_and_the_rest_kept() {
        let doc = "intro\n<!-- gen:a -->\nstale\n<!-- /gen -->\nmid\n\
                   <!-- gen:b --><!-- /gen -->\nend\n";
        let filled = fill(doc, &sections()).unwrap();
        assert_eq!(
            filled,
            "intro\n<!-- gen:a -->\n```text\nA1\nA2\n```\n<!-- /gen -->\nmid\n\
             <!-- gen:b -->\n```text\nB\n```\n<!-- /gen -->\nend\n"
        );
        // Filling is idempotent.
        assert_eq!(fill(&filled, &sections()).unwrap(), filled);
    }

    #[test]
    fn unknown_unclosed_and_missing_blocks_fail() {
        let both = "<!-- gen:a --><!-- /gen --><!-- gen:b --><!-- /gen -->";
        assert!(fill(both, &sections()).is_ok());
        for bad in [
            "<!-- gen:a --><!-- /gen --><!-- gen:b --><!-- /gen --><!-- gen:c --><!-- /gen -->",
            "<!-- gen:a --><!-- /gen --><!-- gen:b -->",
            "<!-- gen:a --><!-- /gen -->",
            "<!-- gen:a",
        ] {
            assert!(fill(bad, &sections()).is_err(), "{bad:?} accepted");
        }
    }
}
