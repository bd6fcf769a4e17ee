//! Keeps the docs honest against the sources, in both directions:
//! - the flag set `docs/OPERATIONS.md` documents for each binary is
//!   diffed against the flags its argument parser actually accepts, so
//!   adding a flag without documenting it — or documenting a flag that
//!   no longer exists — fails;
//! - the request table of `docs/WDTP.md` must name exactly the variants
//!   of `Request` in `proto.rs`;
//! - the frame table of `docs/WDTP.md` must add up and agree with the
//!   header constants of `proto.rs`;
//! - the stats table of `docs/OPERATIONS.md` must name exactly the
//!   counters of `TenantStatsEntry` in `tenant.rs`.
//!
//! No regex: flags are collected by scanning for `--name` tokens, which
//! appear in the parsers as quoted match arms and in the book as table
//! rows and usage blocks. `--help`/`-h` are parser-only conveniences
//! and exempt.

use std::collections::BTreeSet;
use wdte_core::proto::{FRAME_HEADER_BYTES, LENGTH_OFFSET, TAG_BYTES, TENANT_FIELD_BYTES};
use wdte_server::ServerConfig;

const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");
const WDTP: &str = include_str!("../../../docs/WDTP.md");
const PROTO: &str = include_str!("../../core/src/proto.rs");
const TENANT: &str = include_str!("../../core/src/tenant.rs");
const SERVE_JUDGE: &str = include_str!("../src/bin/serve_judge.rs");
const JUDGE_SMOKE: &str = include_str!("../../bench/src/bin/judge_smoke.rs");
const FLEET_SMOKE: &str = include_str!("../../bench/src/bin/fleet_smoke.rs");

/// Every `--flag` token in `text`: a `--` immediately followed by an
/// ASCII lowercase letter, preceded by neither an alphanumeric nor
/// another `-`, extending over `[a-z0-9-]`. Tokens ending in `-` (the
/// `--quota-*` glob in prose) and table rules never qualify.
fn flags(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut found = BTreeSet::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        let boundary = i == 0 || (!bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'-');
        if boundary && bytes[i] == b'-' && bytes[i + 1] == b'-' && bytes[i + 2].is_ascii_lowercase() {
            let mut end = i + 2;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase() || bytes[end].is_ascii_digit() || bytes[end] == b'-')
            {
                end += 1;
            }
            let name = &text[i..end];
            if !name.ends_with('-') && name != "--help" {
                found.insert(name.to_string());
            }
            i = end;
        } else {
            i += 1;
        }
    }
    found
}

/// The body of the `## <title>` section of `doc`, up to the next `## `
/// heading.
fn section(doc: &'static str, title: &str) -> &'static str {
    let heading = format!("\n## {title}\n");
    let start = doc
        .find(&heading)
        .unwrap_or_else(|| panic!("the document has no `## {title}` section"))
        + heading.len();
    let rest = &doc[start..];
    match rest.find("\n## ") {
        Some(end) => &rest[..end],
        None => rest,
    }
}

fn assert_flags_match(binary: &str, source: &str) {
    let documented = flags(section(OPERATIONS, binary));
    let parsed = flags(source);
    let undocumented: Vec<&String> = parsed.difference(&documented).collect();
    let phantom: Vec<&String> = documented.difference(&parsed).collect();
    assert!(
        undocumented.is_empty() && phantom.is_empty(),
        "docs/OPERATIONS.md drifted from `{binary}`:\n  \
         accepted but undocumented: {undocumented:?}\n  \
         documented but not accepted: {phantom:?}"
    );
}

#[test]
fn operations_book_documents_exactly_the_serve_judge_flags() {
    assert_flags_match("serve_judge", SERVE_JUDGE);
}

#[test]
fn operations_book_documents_exactly_the_judge_smoke_flags() {
    assert_flags_match("judge_smoke", JUDGE_SMOKE);
}

#[test]
fn operations_book_documents_exactly_the_fleet_smoke_flags() {
    assert_flags_match("fleet_smoke", FLEET_SMOKE);
}

/// `serve_judge` leaves `--max-pipeline` unset unless given, so the
/// documented default is the library's.
#[test]
fn max_pipeline_default_is_the_server_config_default() {
    let row = section(OPERATIONS, "serve_judge")
        .lines()
        .find(|line| line.starts_with("| `--max-pipeline"))
        .expect("docs/OPERATIONS.md has a `--max-pipeline` row");
    let default = row.split('|').nth(2).expect("the row has a default cell").trim();
    assert_eq!(
        default.trim_matches('`'),
        ServerConfig::default().max_pipeline.to_string(),
        "the `--max-pipeline` default cell is `{default}`"
    );
}

/// `text` up to its first character that cannot continue an identifier.
fn leading_identifier(text: &str) -> String {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The variant names of `pub enum <name>` in Rust source text: the
/// leading identifiers of the lines of its body indented by exactly four
/// spaces that start with an uppercase letter.
fn enum_variants(source: &str, name: &str) -> BTreeSet<String> {
    let opening = format!("pub enum {name} {{\n");
    let start = source.find(&opening).unwrap_or_else(|| panic!("no `pub enum {name}`")) + opening.len();
    let body = &source[start..start + source[start..].find("\n}\n").expect("the enum body closes")];
    body.lines()
        .filter_map(|line| line.strip_prefix("    "))
        .filter(|rest| rest.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(leading_identifier)
        .collect()
}

/// The leading identifier of each table row's first cell (`` | `Name {
/// .. }` | ``) in `text`; header and rule rows have no backticked cell.
fn table_names(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(leading_identifier)
        .collect()
}

#[test]
fn wdtp_request_table_names_exactly_the_request_variants() {
    let declared = enum_variants(PROTO, "Request");
    assert!(
        declared.contains("Ping"),
        "the variant scanner found {declared:?}"
    );
    let documented = table_names(section(WDTP, "Requests and responses"));
    assert_eq!(
        documented, declared,
        "docs/WDTP.md's request table drifted from `Request` in proto.rs"
    );
}

/// The rows of the offset/size table under `## The frame` in
/// `docs/WDTP.md` as `(offset, size, field)`; the payload's `*len*` size
/// is `None`. Header and rule rows have no numeric offset.
fn frame_rows() -> Vec<(usize, Option<usize>, &'static str)> {
    section(WDTP, "The frame")
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
            let offset = cells.next()?.parse().ok()?;
            let size = cells.next()?.parse().ok();
            Some((offset, size, cells.next()?))
        })
        .collect()
}

#[test]
fn wdtp_frame_table_matches_the_header_layout() {
    let rows = frame_rows();
    assert_eq!(rows.len(), 8, "docs/WDTP.md's frame table has rows {rows:?}");
    assert_eq!(rows[0].0, 0, "the frame table starts at offset 0");
    for pair in rows.windows(2) {
        let ((offset, size, field), (next, _, next_field)) = (pair[0], pair[1]);
        let size = size.unwrap_or_else(|| panic!("only the last row may be unsized, not `{field}`"));
        assert_eq!(
            offset + size,
            next,
            "docs/WDTP.md: `{next_field}` is at {next}, but the fields before it end at {}",
            offset + size
        );
    }
    let row = |prefix: &str| {
        *rows
            .iter()
            .find(|(_, _, field)| field.starts_with(prefix))
            .unwrap_or_else(|| panic!("docs/WDTP.md's frame table has no `{prefix}` row"))
    };
    assert_eq!(row("tenant id").1, Some(TENANT_FIELD_BYTES));
    assert_eq!(row("truncated HMAC-SHA-256 tag").1, Some(TAG_BYTES));
    assert_eq!(row("payload length").0, LENGTH_OFFSET);
    assert_eq!(row("payload:").0, FRAME_HEADER_BYTES);
}

/// The field names of `pub struct <name>` in Rust source text: the
/// identifiers after `pub ` on the lines of its body indented by exactly
/// four spaces.
fn struct_fields(source: &str, name: &str) -> BTreeSet<String> {
    let opening = format!("pub struct {name} {{\n");
    let start =
        source.find(&opening).unwrap_or_else(|| panic!("no `pub struct {name}`")) + opening.len();
    let body = &source[start..start + source[start..].find("\n}\n").expect("the struct body closes")];
    body.lines()
        .filter_map(|line| line.strip_prefix("    pub "))
        .filter_map(|rest| rest.split(':').next())
        .map(str::to_string)
        .collect()
}

/// Every backticked name in the first cell of each table row of `text`
/// (a row may name two counters, as in `` `cache_hits` / `cache_misses` ``).
fn first_cell_names(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix('|')?.split('|').next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2).map(str::to_string))
        .collect()
}

/// The body of the `### <title>` subsection of `doc`, up to the next
/// heading.
fn subsection(doc: &'static str, title: &str) -> &'static str {
    let body = doc
        .split(&format!("\n### {title}\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("the document has no `### {title}` section"));
    body.split("\n#").next().unwrap_or(body)
}

#[test]
fn stats_table_names_exactly_the_tenant_stats_fields() {
    let mut declared = struct_fields(TENANT, "TenantStatsEntry");
    assert!(declared.remove("tenant"), "the field scanner found {declared:?}");
    let documented = first_cell_names(subsection(OPERATIONS, "Reading the stats line"));
    assert_eq!(
        documented, declared,
        "docs/OPERATIONS.md's stats table drifted from `TenantStatsEntry` in tenant.rs"
    );
}

/// The scanner itself: accepts real flags, rejects table rules,
/// em-dash prose and `--help`.
#[test]
fn flag_scanner_extracts_only_plausible_flags() {
    let sample = "|---|---|\nuse `--max-docket N` or `--workers 0` --- not `--help`, x--y, `--quota-*`";
    let got = flags(sample);
    let want: BTreeSet<String> = ["--max-docket", "--workers"].iter().map(|s| s.to_string()).collect();
    assert_eq!(got, want);
}
