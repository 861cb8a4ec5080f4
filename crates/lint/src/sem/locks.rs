//! L6 `lock-discipline`: guards must not be held across blocking I/O, and
//! nested acquisitions must respect DESIGN.md's serve lock-order table.
//!
//! The rule builds a per-function lock-acquisition model over the serve
//! crate's library code:
//!
//! * **Acquisitions** are recognized structurally — the repo's `lock(&m)` /
//!   `shared.lock_tenants()` helpers and the zero-argument guard methods
//!   `.lock()` / `.read()` / `.write()`. Each acquisition is qualified as
//!   `<file stem>.<field>` (`server.tenants`, `metrics.totals`); a
//!   tuple-field mutex (`&self.0`) falls back to the lowercased `impl`
//!   owner (`conn.sink` for a `Sink(Mutex<…>)` in `conn.rs`).
//! * **Guard extents** are approximated from the token tree: a `let`-bound
//!   guard lives to the close of its enclosing block, minus every
//!   `drop(name)` range (from the drop site to the close of *its*
//!   enclosing block — so early-release on one match arm does not leak the
//!   guard into the code after the arm); an unbound (temporary) guard
//!   lives to the end of its statement. `if let Ok(g) = m.lock()` binds
//!   are *not* modelled — the house style is the poison-recovering
//!   `match … into_inner()` form, which is.
//! * **Blocking** is the direct set (`write_all`, `flush`, `sync_all`, …)
//!   plus anything that transitively reaches it through the serve crate's
//!   own functions. Calls resolve by bare name (same-named methods merge,
//!   erring toward more findings, never fewer) — except type-qualified
//!   calls: `Type::m(…)` resolves precisely when `Type` has an indexed
//!   `impl` block, and is *external* (ignored) when it does not, so
//!   `Arc::new(…)` never aliases a serve constructor.
//! * **Order edges** `A → B` are recorded when `B` is acquired (directly
//!   or via a callee) inside a live extent of `A`, and checked against the
//!   total order in DESIGN.md between the
//!   `<!-- serve-lock-order:begin/end -->` markers. Every acquired lock
//!   must appear in the table and every table row must correspond to a
//!   real acquisition, so the table cannot rot in either direction.
//!
//! Deliberate holds (the write-ahead-journal appends under the session
//! lock, the reply writer flush) are marked `lint:allow(lock-discipline)`
//! at the acquisition site with a justification — the finding anchors at
//! the acquisition line precisely so one marker covers the whole extent.

use std::collections::{BTreeMap, BTreeSet};

use crate::index::{FileIndex, FnItem};
use crate::lexer::TokenKind;
use crate::rules::{Finding, RuleId};

use super::SemContext;

/// Methods that perform blocking I/O when invoked as `.m(…)` or
/// `Type::m(…)`. `Condvar::wait`/`wait_timeout` are deliberately absent:
/// holding the mutex across a wait is the condvar contract.
const DIRECT_BLOCKING: [&str; 14] = [
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
    "sync_data",
    "set_len",
    "read_line",
    "read_exact",
    "read_to_end",
    "open",
    "create",
    "create_dir_all",
    "remove_file",
    "rename",
];

/// The repo's lock helpers. Their *bodies* are exempt (they exist to
/// acquire), and calls to them are acquisition sites, not ordinary calls.
const HELPER_FNS: [&str; 2] = ["lock", "lock_tenants"];

/// Zero-argument guard methods (`Mutex::lock`, `RwLock::read`/`write`).
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One acquisition with the token extent the guard is live over.
struct Acq {
    /// Qualified lock name, `<file stem>.<field>`.
    lock: String,
    /// 1-based line of the acquisition (where `lint:allow` anchors).
    line: u32,
    /// Token index of the acquiring call's `(` — used to test whether
    /// this acquisition sits inside another guard's live extent.
    anchor: usize,
    /// Inclusive live token ranges, drop-site ranges subtracted.
    live: Vec<(usize, usize)>,
}

/// What one function's body was seen to do.
struct FnScan {
    acqs: Vec<Acq>,
    /// `(token index, method name)` of direct blocking calls.
    blocking: Vec<(usize, String)>,
    /// `(token index, callee name)` of calls to serve-crate functions.
    calls: Vec<(usize, String)>,
}

/// Merged facts per resolution key — the bare function name (cross-file,
/// union semantics) and, for methods, the precise `Owner::name`.
#[derive(Default)]
struct Facts {
    /// A directly blocking method called somewhere in the body.
    blocks: Option<String>,
    acquires: BTreeSet<String>,
    calls: BTreeSet<String>,
}

/// A function body as positions into its non-comment token list.
struct Body<'a, 'b> {
    idx: &'b FileIndex<'a>,
    /// Token indices of the body's non-comment tokens.
    code: Vec<usize>,
    /// Token index of the body's closing `}`.
    end: usize,
}

impl<'a, 'b> Body<'a, 'b> {
    fn new(idx: &'b FileIndex<'a>, item: &FnItem) -> Body<'a, 'b> {
        Body {
            idx,
            code: idx.code_in(item.body).collect(),
            end: item.body.1,
        }
    }

    /// Token index at code position `ci` (out of range → the body end).
    fn tok(&self, ci: usize) -> usize {
        self.code.get(ci).copied().unwrap_or(self.end)
    }

    fn text(&self, ci: usize) -> &'a str {
        self.code
            .get(ci)
            .map(|&i| self.idx.tokens[i].text)
            .unwrap_or("")
    }

    fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.code.get(ci).map(|&i| self.idx.tokens[i].kind)
    }

    fn line(&self, ci: usize) -> u32 {
        self.code
            .get(ci)
            .map(|&i| self.idx.tokens[i].line)
            .unwrap_or(0)
    }

    /// First token after `tok` whose depth drops below `tok`'s — the close
    /// of the innermost enclosing group — capped at the body end.
    fn enclosing_close(&self, tok: usize) -> usize {
        let d = self.idx.tree.depth[tok];
        (tok + 1..=self.end)
            .find(|&j| self.idx.tree.depth[j] < d)
            .unwrap_or(self.end)
    }

    /// Walks the receiver chain `a.b.c` back from the `.` at position
    /// `dot`, returning the chain head (`a`). `None` when the receiver is
    /// not a plain path (e.g. a call result).
    fn chain_head(&self, dot: usize) -> Option<usize> {
        let mut d = dot;
        loop {
            let p = d.checked_sub(1)?;
            match self.kind(p) {
                Some(TokenKind::Ident) | Some(TokenKind::Int) => {
                    if p >= 1 && self.text(p - 1) == "." {
                        d = p - 1;
                    } else {
                        return Some(p);
                    }
                }
                _ => return None,
            }
        }
    }

    /// Is the acquisition whose chain head sits at `head` bound by a
    /// `let [mut] name = [match] …` statement? Returns the guard name and
    /// the `let`'s code position.
    fn binding(&self, head: usize) -> Option<(String, usize)> {
        let mut b = head.checked_sub(1)?;
        if self.text(b) == "match" {
            b = b.checked_sub(1)?;
        }
        if self.text(b) != "=" {
            return None;
        }
        b = b.checked_sub(1)?;
        if self.kind(b) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.text(b).to_string();
        let mut l = b.checked_sub(1)?;
        if self.text(l) == "mut" {
            l = l.checked_sub(1)?;
        }
        (self.text(l) == "let").then_some((name, l))
    }

    /// Recognizes an acquisition whose name/method token is at `ci`.
    fn acquisition_at(&self, ci: usize, stem: &str, owner: Option<&str>) -> Option<Acq> {
        let t = self.text(ci);
        if self.kind(ci) != Some(TokenKind::Ident) || self.text(ci + 1) != "(" {
            return None;
        }
        let after_dot = ci >= 1 && self.text(ci - 1) == ".";

        let (lock, head) = if t == "lock_tenants" {
            // The tenants-map helper on `Shared`.
            let head = if after_dot {
                self.chain_head(ci - 1)?
            } else {
                ci
            };
            ("server.tenants".to_string(), head)
        } else if t == "lock" && !after_dot {
            // The free helper: `lock(&self.path.to.field)` — the lock is
            // the last identifier in the argument (the field name).
            let open = self.tok(ci + 1);
            let close = self.idx.tree.match_of.get(open).copied().flatten()?;
            let field = (ci + 2..)
                .take_while(|&j| self.tok(j) < close)
                .filter(|&j| self.kind(j) == Some(TokenKind::Ident) && self.text(j) != "self")
                .last();
            let lock = match field {
                Some(j) => format!("{stem}.{}", self.text(j)),
                None => anon_lock(stem, owner),
            };
            (lock, ci)
        } else if GUARD_METHODS.contains(&t) && after_dot && self.text(ci + 2) == ")" {
            // `recv.lock()` / `.read()` / `.write()`: the receiver's last
            // field names the lock.
            let head = self.chain_head(ci - 1)?;
            let lock = match self.kind(ci - 2) {
                Some(TokenKind::Ident) if self.text(ci - 2) != "self" => {
                    format!("{stem}.{}", self.text(ci - 2))
                }
                _ => anon_lock(stem, owner),
            };
            (lock, head)
        } else {
            return None;
        };

        let open_tok = self.tok(ci + 1);
        let close_tok = self.idx.tree.match_of.get(open_tok).copied().flatten()?;
        let head_tok = self.tok(head);
        let line = self.line(ci);

        let (start, end, dead) = match self.binding(head) {
            Some((guard, let_pos)) => {
                let end = self.enclosing_close(self.tok(let_pos));
                let dead = self.drop_ranges(&guard, close_tok, end);
                (close_tok + 1, end, dead)
            }
            None => {
                // Temporary: the guard dies at the end of its statement.
                let cap = self.enclosing_close(head_tok);
                let depth = self.idx.tree.depth[head_tok];
                let end = (0..self.code.len())
                    .filter(|&j| {
                        let tk = self.tok(j);
                        tk > close_tok && tk < cap && self.idx.tree.depth[tk] <= depth
                    })
                    .find(|&j| self.text(j) == ";")
                    .map(|j| self.tok(j))
                    .unwrap_or(cap);
                (close_tok + 1, end, Vec::new())
            }
        };

        Some(Acq {
            lock,
            line,
            anchor: open_tok,
            live: subtract(start, end, &dead),
        })
    }

    /// Token ranges killed by `drop(guard)` calls: each runs from the drop
    /// site to the close of its innermost enclosing block, so a drop on an
    /// early-return arm does not blind the analysis to the main path.
    fn drop_ranges(&self, guard: &str, after: usize, until: usize) -> Vec<(usize, usize)> {
        let mut dead = Vec::new();
        for ci in 0..self.code.len() {
            let tk = self.tok(ci);
            if tk <= after || tk >= until {
                continue;
            }
            if self.text(ci) == "drop"
                && self.text(ci + 1) == "("
                && self.text(ci + 2) == guard
                && self.text(ci + 3) == ")"
            {
                dead.push((tk, self.enclosing_close(tk).min(until)));
            }
        }
        dead
    }
}

/// Lock name for a mutex with no named field (`&self.0`): qualify by the
/// lowercased `impl` owner.
fn anon_lock(stem: &str, owner: Option<&str>) -> String {
    match owner {
        Some(o) => format!("{stem}.{}", o.to_ascii_lowercase()),
        None => format!("{stem}.anon"),
    }
}

/// Subtracts the `dead` ranges from `[start, end]`.
fn subtract(start: usize, end: usize, dead: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut live = vec![(start, end)];
    for &(ds, de) in dead {
        let mut next = Vec::new();
        for (s, e) in live {
            if de < s || ds > e {
                next.push((s, e));
                continue;
            }
            if ds > s {
                next.push((s, ds - 1));
            }
            if de < e {
                next.push((de + 1, e));
            }
        }
        live = next;
    }
    live
}

fn file_stem(rel: &str) -> String {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
        .to_string()
}

/// How callees resolve: the set of bare serve fn names, the set of
/// `(owner, name)` pairs with an `impl` block, and the owner names.
struct Resolver {
    fn_names: BTreeSet<String>,
    methods: BTreeSet<(String, String)>,
    owners: BTreeSet<String>,
}

impl Resolver {
    /// Resolves the call at `ci` to a facts key. `Type::m(…)` resolves to
    /// `Type::m` when `Type` is an indexed impl owner, to nothing when
    /// `Type` looks like an external type (uppercase, unindexed), and to
    /// the merged bare name for module paths and plain/method calls.
    fn key(&self, body: &Body<'_, '_>, ci: usize) -> Option<String> {
        let t = body.text(ci);
        if !self.fn_names.contains(t) && !self.methods.iter().any(|(_, m)| m == t) {
            return None;
        }
        if ci >= 2 && body.text(ci - 1) == "::" && body.kind(ci - 2) == Some(TokenKind::Ident) {
            let ty = body.text(ci - 2);
            if self.methods.contains(&(ty.to_string(), t.to_string())) {
                return Some(format!("{ty}::{t}"));
            }
            if self.owners.contains(ty) || ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                // A type path that is not one of ours: external, inert.
                return None;
            }
            // Module path (`journal::read_journal`): merge by bare name.
        }
        Some(t.to_string())
    }
}

fn scan_fn(idx: &FileIndex<'_>, item: &FnItem, resolver: &Resolver) -> FnScan {
    let body = Body::new(idx, item);
    let stem = file_stem(&idx.file.rel);
    let mut scan = FnScan {
        acqs: Vec::new(),
        blocking: Vec::new(),
        calls: Vec::new(),
    };
    for ci in 0..body.code.len() {
        if body.kind(ci) != Some(TokenKind::Ident) || body.text(ci + 1) != "(" {
            continue;
        }
        let t = body.text(ci);
        let prev = if ci >= 1 { body.text(ci - 1) } else { "" };
        if DIRECT_BLOCKING.contains(&t) && (prev == "." || prev == "::") {
            scan.blocking.push((body.tok(ci), t.to_string()));
            continue;
        }
        if let Some(acq) = body.acquisition_at(ci, &stem, item.owner.as_deref()) {
            scan.acqs.push(acq);
            continue;
        }
        if HELPER_FNS.contains(&t) || prev == "fn" {
            continue;
        }
        if let Some(key) = resolver.key(&body, ci) {
            scan.calls.push((body.tok(ci), key));
        }
    }
    scan
}

/// Parses the ordered lock list between the DESIGN.md markers. `None`
/// when the begin marker is absent entirely.
fn parse_order(design: &str) -> Option<Vec<(String, u32)>> {
    let mut in_table = false;
    let mut order = Vec::new();
    let mut found = false;
    for (i, line) in design.lines().enumerate() {
        if line.contains("serve-lock-order:begin") {
            in_table = true;
            found = true;
            continue;
        }
        if in_table && line.contains("serve-lock-order:end") {
            break;
        }
        if !in_table {
            continue;
        }
        let lt = line.trim_start();
        if !lt.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        // `N. \`lock.name\` — rationale`
        let mut parts = lt.split('`');
        let (Some(_), Some(name)) = (parts.next(), parts.next()) else {
            continue;
        };
        order.push((name.to_string(), u32::try_from(i + 1).unwrap_or(u32::MAX)));
    }
    found.then_some(order)
}

pub fn check(ctx: &SemContext<'_>) -> Vec<Finding> {
    let serve: Vec<&FileIndex<'_>> = ctx.serve_libs().collect();
    if serve.is_empty() {
        return Vec::new();
    }

    let mut resolver = Resolver {
        fn_names: BTreeSet::new(),
        methods: BTreeSet::new(),
        owners: BTreeSet::new(),
    };
    for idx in &serve {
        for f in idx.fns.iter().filter(|f| !f.in_test) {
            resolver.fn_names.insert(f.name.clone());
            if let Some(o) = &f.owner {
                resolver.methods.insert((o.clone(), f.name.clone()));
                resolver.owners.insert(o.clone());
            }
        }
    }

    // Pass 1: scan every non-test, non-helper function.
    let mut scans: Vec<(usize, FnScan)> = Vec::new();
    for (fi, idx) in serve.iter().enumerate() {
        for item in &idx.fns {
            if item.in_test || HELPER_FNS.contains(&item.name.as_str()) {
                continue;
            }
            scans.push((fi, scan_fn(idx, item, &resolver)));
        }
    }

    // Pass 2: merged facts and the may-block / may-acquire fixpoints.
    let mut facts: BTreeMap<String, Facts> = BTreeMap::new();
    {
        let mut si = 0usize;
        for (fi, idx) in serve.iter().enumerate() {
            for item in &idx.fns {
                if item.in_test || HELPER_FNS.contains(&item.name.as_str()) {
                    continue;
                }
                let scan = &scans[si].1;
                debug_assert_eq!(scans[si].0, fi);
                si += 1;
                let mut keys = vec![item.name.clone()];
                if let Some(o) = &item.owner {
                    keys.push(format!("{o}::{}", item.name));
                }
                for key in keys {
                    let e = facts.entry(key).or_default();
                    if e.blocks.is_none() {
                        e.blocks = scan.blocking.first().map(|(_, m)| m.clone());
                    }
                    e.acquires.extend(scan.acqs.iter().map(|a| a.lock.clone()));
                    e.calls.extend(scan.calls.iter().map(|(_, c)| c.clone()));
                }
            }
        }
    }
    let names: Vec<String> = facts.keys().cloned().collect();
    // Why each function may block: a direct method, or a blocking callee.
    let mut blocked: BTreeMap<String, String> = facts
        .iter()
        .filter_map(|(n, f)| f.blocks.clone().map(|m| (n.clone(), format!("`{m}`"))))
        .collect();
    loop {
        let mut changed = false;
        for n in &names {
            if blocked.contains_key(n) {
                continue;
            }
            let callee = facts
                .get(n)
                .and_then(|f| f.calls.iter().find(|c| blocked.contains_key(*c)));
            if let Some(c) = callee {
                blocked.insert(n.clone(), format!("call to `{c}`"));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut may_acquire: BTreeMap<String, BTreeSet<String>> = facts
        .iter()
        .map(|(n, f)| (n.clone(), f.acquires.clone()))
        .collect();
    loop {
        let mut changed = false;
        for n in &names {
            let mut add: BTreeSet<String> = BTreeSet::new();
            if let Some(f) = facts.get(n) {
                for c in &f.calls {
                    if let Some(s) = may_acquire.get(c) {
                        add.extend(s.iter().cloned());
                    }
                }
            }
            if let Some(e) = may_acquire.get_mut(n) {
                let before = e.len();
                e.extend(add);
                changed |= e.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: per-acquisition findings and the order-edge set.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut acquired: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (fi, scan) in &scans {
        let idx = serve[*fi];
        let rel = idx.file.rel.clone();
        for a in &scan.acqs {
            acquired
                .entry(a.lock.clone())
                .or_insert((rel.clone(), a.line));
            let in_live = |tok: usize| a.live.iter().any(|&(s, e)| s <= tok && tok <= e);

            let mut evidence: Option<String> = None;
            for (tok, m) in &scan.blocking {
                if in_live(*tok) {
                    evidence = Some(format!("`{m}` at line {}", idx.tokens[*tok].line));
                    break;
                }
            }
            if evidence.is_none() {
                for (tok, c) in &scan.calls {
                    if in_live(*tok) {
                        if let Some(via) = blocked.get(c) {
                            evidence = Some(format!(
                                "`{c}()` at line {}, which reaches {via}",
                                idx.tokens[*tok].line
                            ));
                            break;
                        }
                    }
                }
            }
            if let Some(ev) = evidence {
                findings.push(Finding {
                    rule: RuleId::LockDiscipline,
                    file: rel.clone(),
                    line: a.line,
                    message: format!(
                        "guard on `{}` held across blocking I/O ({ev}) — release it first, or justify with lint:allow(lock-discipline)",
                        a.lock
                    ),
                });
            }

            for b in &scan.acqs {
                if std::ptr::eq(a, b) || !in_live(b.anchor) {
                    continue;
                }
                edges
                    .entry((a.lock.clone(), b.lock.clone()))
                    .or_insert((rel.clone(), idx.tokens[b.anchor].line));
            }
            for (tok, c) in &scan.calls {
                if !in_live(*tok) {
                    continue;
                }
                if let Some(locks) = may_acquire.get(c) {
                    for l in locks {
                        edges
                            .entry((a.lock.clone(), l.clone()))
                            .or_insert((rel.clone(), idx.tokens[*tok].line));
                    }
                }
            }
        }
    }

    // Pass 4: the authoritative order table.
    if acquired.is_empty() {
        return findings;
    }
    let order = ctx.design_md.as_deref().and_then(parse_order);
    let Some(order) = order else {
        findings.push(Finding {
            rule: RuleId::LockDiscipline,
            file: "DESIGN.md".to_string(),
            line: 1,
            message: format!(
                "serve acquires {} lock(s) but DESIGN.md has no serve lock-order table \
                 (expected an ordered list between `<!-- serve-lock-order:begin -->` and \
                 `<!-- serve-lock-order:end -->`)",
                acquired.len()
            ),
        });
        return findings;
    };
    let rank: BTreeMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i + 1))
        .collect();
    for (lock, (file, line)) in &acquired {
        if !rank.contains_key(lock.as_str()) {
            findings.push(Finding {
                rule: RuleId::LockDiscipline,
                file: file.clone(),
                line: *line,
                message: format!(
                    "lock `{lock}` is not in DESIGN.md's serve lock-order table — add it at its acquisition rank"
                ),
            });
        }
    }
    for (name, line) in &order {
        if !acquired.contains_key(name) {
            findings.push(Finding {
                rule: RuleId::LockDiscipline,
                file: "DESIGN.md".to_string(),
                line: *line,
                message: format!(
                    "serve lock-order table lists `{name}` but no acquisition of it exists — remove the stale row"
                ),
            });
        }
    }
    for ((a, b), (file, line)) in &edges {
        let (Some(ra), Some(rb)) = (rank.get(a.as_str()), rank.get(b.as_str())) else {
            continue; // Already reported as missing from the table.
        };
        if a == b {
            findings.push(Finding {
                rule: RuleId::LockDiscipline,
                file: file.clone(),
                line: *line,
                message: format!(
                    "re-entrant acquisition: `{a}` acquired while a guard on it is already live (self-deadlock)"
                ),
            });
        } else if ra >= rb {
            findings.push(Finding {
                rule: RuleId::LockDiscipline,
                file: file.clone(),
                line: *line,
                message: format!(
                    "lock-order inversion: `{b}` (rank {rb}) acquired while holding `{a}` (rank {ra}) — \
                     DESIGN.md orders `{b}` before `{a}`"
                ),
            });
        }
    }
    findings
}
