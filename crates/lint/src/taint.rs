//! Intraprocedural secret-taint dataflow.
//!
//! Sources: parameters and bindings whose declared type matches the
//! secret registry ([`is_secret_type`]), bindings whose name matches the
//! secret naming convention ([`is_secret_binding`]), and bindings under a
//! `lint:taint(source)` marker. Taint propagates through `let`
//! initializers, re-assignment, field access and method receivers (an
//! expression is tainted if any identifier it mentions is), which gives
//! `clone`/`as_ref`-style passthroughs for free.
//!
//! Sanitizers clear taint: a call whose callee starts with one of
//! [`SANITIZER_PREFIXES`] (`encrypt*`, `share*`, `commit*`) or whose
//! `fn` is marked `lint:sanitize` produces public material — its
//! argument span is excluded from taint scans.
//!
//! Sinks, each a `taint-flow` finding when reached by a tainted value:
//!
//! 1. format/log macros (`println!`, `format!`, ... and `dbg!`) — but
//!    only via bindings the token-level `secret-format` rule cannot see
//!    (non-secret-named ones), so the two rules never double-report;
//! 2. board posting payloads: `.post(..)`/`.post_batch(..)`/
//!    `.post_run(..)`/`.record(..)`/`.open_run(..)` arguments and `Post*`-named
//!    struct-literal fields;
//! 3. serialization: [`SERIALIZE_SINKS`] callees with a tainted receiver
//!    or argument;
//! 4. raw-byte returns: `Vec<u8>`-returning functions whose `return`/tail
//!    expression is tainted, unless the fn is itself a sanitizer.

use std::collections::BTreeSet;

use crate::allow::Directives;
use crate::config::{
    is_secret_binding, is_secret_type, RuleId, FORMAT_MACROS, SANITIZER_PREFIXES, SERIALIZE_SINKS,
};
use crate::lexer::{TokKind, Token};
use crate::parse::{match_delim, split_args, FnItem, Span};

/// Posting-payload method sinks.
const POST_SINKS: [&str; 5] = ["post", "post_batch", "post_run", "record", "open_run"];

/// Run the taint pass over every parsed function.
pub fn taint_pass(
    tokens: &[Token],
    fns: &[FnItem],
    mask: &[bool],
    directives: &Directives,
    emit: &mut dyn FnMut(RuleId, usize, String),
) {
    // Nested fns are parsed both standalone and as part of their enclosing
    // item's body, so findings are deduplicated across fn items.
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for f in fns {
        if mask.get(f.fn_tok).copied().unwrap_or(false) {
            continue;
        }
        let st = TaintState::compute(tokens, f, directives);
        st.check_sinks(directives, &mut |rule, line, msg| {
            if seen.insert((line, msg.clone())) {
                emit(rule, line, msg);
            }
        });
    }
}

/// True if `name` is a sanitizer callee: built-in prefix set only (the
/// per-file `lint:sanitize` markers are resolved by the caller via
/// [`Directives::sanitizer_fn`] on the callee *definition* line, which an
/// intraprocedural pass cannot see at the call site — so marked fns also
/// get their names accepted when they match no prefix only if the marker
/// governs the call line itself).
fn is_sanitizer_name(name: &str) -> bool {
    SANITIZER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Per-function taint facts.
struct TaintState<'a> {
    tokens: &'a [Token],
    f: &'a FnItem,
    /// Parallel to `f.lets`.
    let_taint: Vec<bool>,
    /// Parallel to `f.params`.
    param_taint: Vec<bool>,
}

impl<'a> TaintState<'a> {
    fn compute(tokens: &'a [Token], f: &'a FnItem, directives: &Directives) -> TaintState<'a> {
        let param_taint: Vec<bool> = f
            .params
            .iter()
            .map(|p| {
                p.ty.iter().any(|t| is_secret_type(t)) || is_secret_binding(&p.name)
            })
            .collect();
        let mut st = TaintState { tokens, f, let_taint: vec![false; f.lets.len()], param_taint };
        // Lets are in source order; a binding's taint depends only on
        // earlier facts, but assignments can feed back, so iterate to a
        // small fixpoint.
        for _ in 0..8 {
            let mut changed = false;
            for i in 0..f.lets.len() {
                if st.let_taint[i] {
                    continue;
                }
                let l = &f.lets[i];
                // An explicit `*Public*` type annotation is a declared
                // projection to public material (`let pks: Vec<PkePublicKey
                // <F>> = key_pairs.iter().map(|kp| kp.public)...`): the
                // type registry itself classifies the binding as public,
                // so initializer taint does not propagate into it.
                let declared_public = l.ty.iter().any(|t| t.contains("Public"));
                let tainted = directives.taint_source(l.line)
                    || l.ty.iter().any(|t| is_secret_type(t))
                    || is_secret_binding(&l.name)
                    || (!declared_public && st.range_tainted(l.init, directives));
                if tainted {
                    st.let_taint[i] = true;
                    changed = true;
                }
            }
            for a in &f.assigns {
                if st.range_tainted(a.rhs, directives) && !st.ident_tainted(&a.name, a.pos) {
                    // Taint the binding the assignment targets: the last
                    // let before the assignment, or the parameter.
                    let mut hit = false;
                    if let Some(idx) = st.last_let_index(&a.name, a.pos) {
                        st.let_taint[idx] = true;
                        hit = true;
                    } else if let Some(p) =
                        f.params.iter().position(|p| p.name == a.name)
                    {
                        st.param_taint[p] = true;
                        hit = true;
                    }
                    changed |= hit;
                }
            }
            if !changed {
                break;
            }
        }
        st
    }

    fn last_let_index(&self, name: &str, before: usize) -> Option<usize> {
        self.f
            .lets
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == name && l.pos < before)
            .map(|(i, _)| i)
            .next_back()
    }

    /// Is the identifier `name`, used at token index `pos`, tainted?
    fn ident_tainted(&self, name: &str, pos: usize) -> bool {
        // Path-tail segments (`Post::TskReshare`, `F::to_bytes`) name enum
        // variants or associated items, not values; only the path *head*
        // can mention a secret binding or construct a secret type.
        if pos >= 2
            && self.tokens[pos - 1].is_punct(':')
            && self.tokens[pos - 2].is_punct(':')
        {
            return false;
        }
        if let Some(idx) = self.last_let_index(name, pos) {
            return self.let_taint[idx];
        }
        if let Some(p) = self.f.params.iter().position(|p| p.name == name) {
            return self.param_taint[p];
        }
        // Free identifier: field/method name (`msg.sk`), a secret-named
        // module-level binding, or a secret type constructor.
        is_secret_binding(name) || is_secret_type(name)
    }

    /// Scan an expression span for tainted identifiers, skipping the
    /// argument lists of sanitizer calls (`encrypt*(...)`,
    /// `x.share_to(...)`, and `lint:sanitize`-marked callees on marked
    /// call lines).
    fn range_tainted(&self, range: Span, directives: &Directives) -> bool {
        self.first_tainted_in(range, directives).is_some()
    }

    /// First tainted identifier in `range`, with its token index.
    fn first_tainted_in(
        &self,
        range: Span,
        directives: &Directives,
    ) -> Option<(usize, &'a str)> {
        let mut i = range.0;
        while i < range.1.min(self.tokens.len()) {
            let t = &self.tokens[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let sanitizes = is_sanitizer_name(&t.text) || directives.sanitizer_fn(t.line);
            if sanitizes {
                // `encrypt(...)` / `.encrypt_for(...)`: skip the call's
                // argument list — its output is public by contract.
                let mut j = i + 1;
                // Tolerate turbofish: `share::<F>(...)`.
                while j + 1 < range.1
                    && self.tokens[j].is_punct(':')
                    && self.tokens[j + 1].is_punct(':')
                {
                    j += 2;
                    if j < range.1 && self.tokens[j].is_punct('<') {
                        let mut depth = 0isize;
                        while j < range.1 {
                            if self.tokens[j].is_punct('<') {
                                depth += 1;
                            } else if self.tokens[j].is_punct('>') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else {
                        break;
                    }
                }
                if j < range.1 && self.tokens[j].is_punct('(') {
                    i = match_delim(self.tokens, j) + 1;
                    continue;
                }
            }
            if self.ident_tainted(&t.text, i) {
                return Some((i, self.text_at(i)));
            }
            // A tainted receiver passed *into* a sanitizer method —
            // `sk.encrypt_to(pk)` — is caught above only for prefix
            // position; check the method-call form: ident `.` sanitizer `(`.
            i += 1;
        }
        None
    }

    fn text_at(&self, i: usize) -> &'a str {
        self.tokens[i].text.as_str()
    }

    /// True if the receiver of the method call whose `.` sits right after
    /// ident `i` is a sanitizer method (`sk.encrypt()`): the *call* is
    /// sanitizing, so the receiver mention is sanctioned.
    fn receiver_of_sanitizer(&self, i: usize, directives: &Directives) -> bool {
        let mut j = i + 1;
        // Walk forward over a `.method(` chain; the first call decides.
        while j + 2 < self.tokens.len()
            && self.tokens[j].is_punct('.')
            && self.tokens[j + 1].kind == TokKind::Ident
        {
            let m = &self.tokens[j + 1];
            let called = self.tokens.get(j + 2).map(|t| t.is_punct('(')).unwrap_or(false);
            if called {
                return is_sanitizer_name(&m.text) || directives.sanitizer_fn(m.line);
            }
            // Field access: keep walking the chain.
            j += 2;
        }
        false
    }

    /// Emit findings for every sink the function's taint reaches.
    fn check_sinks(
        &self,
        directives: &Directives,
        emit: &mut dyn FnMut(RuleId, usize, String),
    ) {
        let body = self.f.body;
        let fn_is_sanitizer =
            is_sanitizer_name(&self.f.name) || directives.sanitizer_fn(self.f.line);
        let mut i = body.0;
        while i < body.1.min(self.tokens.len()) {
            let t = &self.tokens[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let next = |k: usize| self.tokens.get(i + k);
            // --- Sink 1: format/log macros and dbg! ---
            let is_fmt = (FORMAT_MACROS.contains(&t.text.as_str()) || t.text == "dbg")
                && next(1).map(|n| n.is_punct('!')).unwrap_or(false)
                && next(2).map(|n| n.is_punct('(')).unwrap_or(false);
            if is_fmt {
                let close = match_delim(self.tokens, i + 2);
                self.report_tainted_args(
                    (i + 3, close),
                    directives,
                    emit,
                    // The token-level secret-format rule already covers
                    // secret-*named* bindings; reporting only the others
                    // keeps the two rules disjoint.
                    |name| !is_secret_binding(name),
                    &format!("`{}!`", t.text),
                );
                i = close + 1;
                continue;
            }
            // --- Sink 2a: posting methods ---
            let is_post = POST_SINKS.contains(&t.text.as_str())
                && i > 0
                && self.tokens[i - 1].is_punct('.')
                && next(1).map(|n| n.is_punct('(')).unwrap_or(false);
            if is_post {
                let close = match_delim(self.tokens, i + 1);
                self.report_tainted_args(
                    (i + 2, close),
                    directives,
                    emit,
                    |_| true,
                    &format!("board posting `.{}(..)`", t.text),
                );
                i = close + 1;
                continue;
            }
            // --- Sink 2b: Post*-named struct literals ---
            if t.text.starts_with("Post")
                && next(1).map(|n| n.is_punct('{')).unwrap_or(false)
                && !(i > 0
                    && (self.tokens[i - 1].is_ident("let")
                        || self.tokens[i - 1].is_ident("Some")
                        || self.tokens[i - 1].is_punct('(')
                            && i > 1
                            && self.tokens[i - 2].is_ident("let")))
            {
                let close = match_delim(self.tokens, i + 1);
                // Match *patterns* (`Posting { .. } =>`, `if let Posting
                // {..} = x`) destructure rather than construct.
                let is_pattern = self
                    .tokens
                    .get(close + 1)
                    .map(|n| n.is_punct('=') || n.is_punct('>'))
                    .unwrap_or(false)
                    || (i >= 2
                        && (self.tokens[i - 1].is_ident("let")
                            || self.tokens[i - 2].is_ident("let")));
                if !is_pattern {
                    self.report_tainted_args(
                        (i + 2, close),
                        directives,
                        emit,
                        |_| true,
                        &format!("posting payload `{} {{ .. }}`", t.text),
                    );
                }
                i = close + 1;
                continue;
            }
            // --- Sink 3: serialization calls ---
            let is_ser = SERIALIZE_SINKS.contains(&t.text.as_str())
                && i > 0
                && self.tokens[i - 1].is_punct('.')
                && next(1).map(|n| n.is_punct('(')).unwrap_or(false);
            if is_ser {
                // Receiver: base identifier of the chain before the `.`.
                if let Some((line, name)) = self.receiver_base(i - 1) {
                    if self.ident_tainted(name, i) {
                        emit(
                            RuleId::TaintFlow,
                            line,
                            format!(
                                "secret-tainted `{name}` flows into serialization \
                                 `.{}()`; route it through encrypt*/share*/commit* or \
                                 mark the producer `lint:sanitize`",
                                t.text
                            ),
                        );
                    }
                }
                let close = match_delim(self.tokens, i + 1);
                self.report_tainted_args(
                    (i + 2, close),
                    directives,
                    emit,
                    |_| true,
                    &format!("serialization `.{}(..)`", t.text),
                );
                i = close + 1;
                continue;
            }
            // --- Sink 4: tainted `return` in a Vec<u8> fn ---
            if t.text == "return" && self.returns_raw_bytes() && !fn_is_sanitizer {
                // Expression runs to the `;` at balanced depth.
                let mut j = i + 1;
                let mut depth = 0isize;
                while j < body.1 {
                    let n = &self.tokens[j];
                    if n.is_punct('(') || n.is_punct('[') || n.is_punct('{') {
                        depth += 1;
                    } else if n.is_punct(')') || n.is_punct(']') || n.is_punct('}') {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if n.is_punct(';') && depth == 0 {
                        break;
                    }
                    j += 1;
                }
                if let Some((idx, name)) = self.first_tainted_in((i + 1, j), directives) {
                    if !self.receiver_of_sanitizer(idx, directives) {
                        emit(
                            RuleId::TaintFlow,
                            self.tokens[idx].line,
                            format!(
                                "fn `{}` returns raw bytes built from secret-tainted \
                                 `{name}`; encrypt/share/commit first or mark the fn \
                                 `lint:sanitize`",
                                self.f.name
                            ),
                        );
                    }
                }
                i = j;
                continue;
            }
            i += 1;
        }
        // Tail expression of a Vec<u8> fn.
        if self.returns_raw_bytes() && !fn_is_sanitizer {
            if let Some(tail) = self.f.tail {
                if let Some((idx, name)) = self.first_tainted_in(tail, directives) {
                    if !self.receiver_of_sanitizer(idx, directives) {
                        emit(
                            RuleId::TaintFlow,
                            self.tokens[idx].line,
                            format!(
                                "fn `{}` returns raw bytes built from secret-tainted \
                                 `{name}`; encrypt/share/commit first or mark the fn \
                                 `lint:sanitize`",
                                self.f.name
                            ),
                        );
                    }
                }
            }
        }
    }

    /// True if the fn's return type is raw bytes (`Vec<u8>` possibly
    /// wrapped in `Result`/`Option`).
    fn returns_raw_bytes(&self) -> bool {
        self.f.ret.iter().any(|t| t == "Vec") && self.f.ret.iter().any(|t| t == "u8")
    }

    /// Base identifier of a method-call receiver chain ending at the `.`
    /// at `dot` (`a.b.c.` → `a`); returns its line and name.
    fn receiver_base(&self, dot: usize) -> Option<(usize, &'a str)> {
        let mut k = dot;
        loop {
            if k == 0 {
                return None;
            }
            let prev = &self.tokens[k - 1];
            if prev.kind == TokKind::Ident {
                if k >= 2 && self.tokens[k - 2].is_punct('.') {
                    k -= 2;
                    continue;
                }
                return Some((prev.line, prev.text.as_str()));
            }
            // `(expr).to_bytes()` / `x[i].to_bytes()` chains: give up,
            // argument scanning still covers the common leaks.
            return None;
        }
    }

    /// Report each distinct tainted identifier in an argument span.
    fn report_tainted_args(
        &self,
        args: Span,
        directives: &Directives,
        emit: &mut dyn FnMut(RuleId, usize, String),
        report_name: impl Fn(&str) -> bool,
        sink_label: &str,
    ) {
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for arg in split_args(self.tokens, args) {
            let mut span = arg;
            // Struct-literal fields: `field: expr` — scan the expr only,
            // the field name itself is not a value mention.
            if span.1 > span.0 + 1
                && self.tokens[span.0].kind == TokKind::Ident
                && self.tokens[span.0 + 1].is_punct(':')
                && !self.tokens.get(span.0 + 2).map(|t| t.is_punct(':')).unwrap_or(false)
            {
                span = (span.0 + 2, span.1);
            }
            let mut start = span.0;
            while let Some((idx, name)) = self.first_tainted_in((start, span.1), directives) {
                start = idx + 1;
                if !report_name(name) || !reported.insert(name) {
                    continue;
                }
                if self.receiver_of_sanitizer(idx, directives) {
                    continue;
                }
                emit(
                    RuleId::TaintFlow,
                    self.tokens[idx].line,
                    format!(
                        "secret-tainted `{name}` flows into {sink_label}; route it \
                         through encrypt*/share*/commit* or mark a sanitizer with \
                         `lint:sanitize`"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn run(src: &str) -> Vec<(RuleId, usize, String)> {
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let directives = Directives::build("f.rs", &lexed);
        let mask = vec![false; lexed.tokens.len()];
        let mut out = Vec::new();
        taint_pass(&lexed.tokens, &fns, &mask, &directives, &mut |r, l, m| {
            out.push((r, l, m))
        });
        out
    }

    #[test]
    fn clean_flow_through_encrypt() {
        let f = run(
            "fn deal(sk: &SecretKey, pk: &PublicKey) { \
               let ct = encrypt_for(pk, sk); \
               sb.post(owned, role, ct, phase, 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dirty_flow_into_posting() {
        let f = run(
            "fn deal(sk: &SecretKey) { let payload = sk.to_vec(); \
             sb.post(owned, role, payload, phase, 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("payload"));
    }

    #[test]
    fn dirty_flow_via_clone_and_rename() {
        // `leaked` matches no secret naming pattern: only dataflow sees it.
        let f = run("fn f(sk: &SecretKey) { let leaked = sk.clone(); println!(\"{:?}\", leaked); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("leaked"));
    }

    #[test]
    fn format_of_secret_named_binding_left_to_token_rule() {
        // `sk` is secret-named: the secret-format rule reports it, the
        // taint pass stays silent to avoid double findings.
        let f = run("fn f(sk: &SecretKey) { println!(\"{:?}\", sk); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_marker_creates_source() {
        let f = run(
            "fn f() { let blob = derive_thing(); // lint:taint(source): KDF output is secret\n\
             sb.post(owned, role, blob, phase, 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn sanitize_marker_clears() {
        let f = run(
            "fn f(sk: &SecretKey) { \
             let ct = wrap_key(sk); // lint:sanitize: wrap_key returns AEAD ciphertext\n\
             sb.post(owned, role, ct, phase, 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reassignment_propagates() {
        let f = run(
            "fn f(sk: &SecretKey) { let mut buf = Vec::new(); buf = sk.to_vec(); \
             sb.post(owned, role, buf, phase, 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn shadowing_through_sanitizer_clears() {
        let f = run(
            "fn f(sk: &SecretKey) { let x = sk.clone(); let x = commit_to(x); \
             sb.post(owned, role, x, phase, 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn serialize_receiver_sink() {
        let f = run("fn f(sk: &SecretKey) { let c = sk.clone(); let b = c.to_bytes(); send(b); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("to_bytes"));
    }

    #[test]
    fn raw_byte_return_sink_and_sanitizer_exemption() {
        let f = run("fn export(sk: &SecretKey) -> Vec<u8> { let c = sk.clone(); c.to_vec() }");
        assert!(!f.is_empty(), "{f:?}");
        // A sanitizer-named fn is allowed to produce bytes from secrets.
        let f = run("fn share_bytes(sk: &SecretKey) -> Vec<u8> { sk.to_vec() }");
        assert!(f.is_empty(), "{f:?}");
        // ...as is one carrying the sanitize marker.
        let f = run(
            "// lint:sanitize: output is a ciphertext envelope\n\
             fn seal(sk: &SecretKey) -> Vec<u8> { aead(sk) }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn posting_struct_literal_sink() {
        let f = run(
            "fn f(sk: &SecretKey) { let v = sk.clone(); \
             let p = Posting { from: role, payload: v }; push(p); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // Destructuring patterns are not construction.
        let f = run("fn g(p: Posting) { match p { Posting { payload } => use_it(payload), } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn field_access_propagates() {
        let f = run("fn f(msg: &ReshareMsg) { let v = msg.sk_share.clone(); sb.post(o, r, v, p, 1); }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn public_typed_binding_declassifies() {
        // Projecting the public halves out of secret-typed key pairs,
        // declared as such: no taint.
        let f = run(
            "fn f(next_keys: &[PkeKeyPair<F>]) { \
               let pks: Vec<PkePublicKey<F>> = next_keys.iter().map(|kp| kp.public).collect(); \
               sb.post(owned, role, pks, phase, 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // A non-Public annotation does not declassify.
        let f = run(
            "fn f(sk: &SecretKey) { let b: Vec<u8> = sk.to_vec(); \
             sb.post(owned, role, b, phase, 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn untainted_code_is_silent() {
        let f = run(
            "fn f(pk: &PublicKey, shares: &[Ciphertext]) -> Vec<u8> { \
               let mut out = Vec::new(); \
               for s in shares { out.extend(s.to_bytes()); } \
               out }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
