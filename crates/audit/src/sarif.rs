//! Minimal SARIF 2.1.0 rendering so CI can annotate PRs with findings.
//!
//! Hand-rolled (the crate is zero-dependency): one run, one driver, one
//! result per [`Finding`] with a physical location. Only the fields GitHub
//! code scanning actually reads are emitted.

use crate::Finding;

/// All the rule ids the engine can emit, with one-line descriptions —
/// SARIF wants the driver to declare its rules up front.
const RULES: [(&str, &str); 7] = [
    (
        "CIND-A001",
        "every crate root starts with #![forbid(unsafe_code)]; every library root \
         carries the panic-lint line",
    ),
    (
        "CIND-A003",
        "buffer-pool lock discipline: the pool's mutex is never acquired while a pool \
         guard is held",
    ),
    ("CIND-A004", "every config field is wired to a CLI flag"),
    ("CIND-A006", "no lock guard held across a shard fan-out call"),
    ("CIND-A007", "no sync/flush in the serving crate outside the group-commit coordinator"),
    ("CIND-A008", "the workspace lock acquisition-order graph is acyclic"),
    ("CIND-A009", "no blocking call while a lock guard is live"),
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings as a SARIF 2.1.0 log.
#[must_use]
pub fn render(findings: &[Finding]) -> String {
    let rules: Vec<String> = RULES
        .iter()
        .map(|(id, desc)| {
            format!(
                "{{\"id\":\"{id}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                esc(desc)
            )
        })
        .collect();
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                f.rule,
                esc(&f.message),
                esc(&f.file),
                f.line
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":\
         {{\"driver\":{{\"name\":\"cind-audit\",\"informationUri\":\
         \"https://example.invalid/cind-audit\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_schema_rules_and_results() {
        let f = Finding {
            file: "crates/server/src/server.rs".into(),
            line: 42,
            rule: "CIND-A009",
            message: "blocking `.write_all(` while holding lock guard on `out`".into(),
        };
        let s = render(&[f]);
        assert!(s.contains("\"version\":\"2.1.0\""), "{s}");
        assert!(s.contains("\"ruleId\":\"CIND-A009\""), "{s}");
        assert!(s.contains("\"startLine\":42"), "{s}");
        assert!(s.contains("crates/server/src/server.rs"), "{s}");
        for (id, _) in RULES {
            assert!(s.contains(id), "driver must declare {id}");
        }
    }

    #[test]
    fn empty_findings_still_render_a_valid_run() {
        let s = render(&[]);
        assert!(s.contains("\"results\":[]"), "{s}");
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let f = Finding {
            file: "a.rs".into(),
            line: 1,
            rule: "CIND-A004",
            message: "`\"quoted\"` and back\\slash".into(),
        };
        let s = render(&[f]);
        assert!(s.contains("\\\"quoted\\\""), "{s}");
        assert!(s.contains("back\\\\slash"), "{s}");
    }
}
