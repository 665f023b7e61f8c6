//! A lightweight item/expression shape parser over the token stream.
//!
//! The dataflow passes need more structure than the token-level rules:
//! which `fn` items exist, what their parameters and return types are,
//! which bindings a body introduces and from what initializer, where
//! `if` guards and loops begin and end. This module recovers exactly
//! that shape — **not** a full Rust grammar. It is deliberately
//! forgiving: anything it cannot classify is simply not recorded, and
//! the passes degrade to "no finding" rather than a wrong one. All
//! positions are token indices into the [`crate::lexer::Lexed`] stream
//! the file was lexed into, so the passes can slice the original
//! tokens for their own scans.

use crate::lexer::{TokKind, Token};

/// Half-open token-index range `[start, end)`.
pub type Span = (usize, usize);

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for receivers, destructures keep the first
    /// identifier).
    pub name: String,
    /// Identifier tokens of the declared type, in order (`&mut R`
    /// yields `["R"]`, `Vec<u8>` yields `["Vec", "u8"]`). Empty for
    /// `self` receivers.
    pub ty: Vec<String>,
}

/// One `let` binding inside a function body.
#[derive(Debug, Clone)]
pub struct LetBind {
    /// Bound name. Destructuring patterns produce one `LetBind` per
    /// identifier, all sharing the initializer span.
    pub name: String,
    /// 1-based line of the `let`.
    pub line: usize,
    /// Identifier tokens of the declared type annotation (empty if
    /// inferred).
    pub ty: Vec<String>,
    /// Initializer token span (empty span if the binding is
    /// uninitialized).
    pub init: Span,
    /// Token index of the `let` keyword (source-order key shared with
    /// [`Assign`]).
    pub pos: usize,
}

/// One `name = expr` / `name.field = expr` re-assignment.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Base identifier of the assignment target (`x` for `x.f[i] = v`).
    pub name: String,
    /// 1-based line of the assignment.
    pub line: usize,
    /// Right-hand-side token span.
    pub rhs: Span,
    /// Token index of the `=` (source-order key shared with
    /// [`LetBind`]).
    pub pos: usize,
}

/// An `if` (or `if let` / `else if`) guard: condition span plus the
/// brace-delimited body it dominates.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Condition tokens between `if` and the opening `{`.
    pub cond: Span,
    /// Body tokens inside the braces.
    pub body: Span,
}

/// A `for` / `while` / `loop` span: header plus body.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Header tokens between the keyword and the opening `{` (empty
    /// for bare `loop`).
    pub head: Span,
    /// Body tokens inside the braces.
    pub body: Span,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Identifier tokens of the return type (empty when `()`).
    pub ret: Vec<String>,
    /// Body token span (inside the braces).
    pub body: Span,
    /// `let` bindings, in source order.
    pub lets: Vec<LetBind>,
    /// Re-assignments, in source order.
    pub assigns: Vec<Assign>,
    /// `if` guards, in source order.
    pub guards: Vec<Guard>,
    /// `for`/`while`/`loop` loops, in source order.
    pub loops: Vec<Loop>,
    /// Trailing-expression token span of the body, if the body ends in
    /// an expression rather than a `;`/block statement.
    pub tail: Option<Span>,
}

impl FnItem {
    /// The initializer span of the *last* `let` binding of `name`
    /// declared at or before token index `before` (shadowing-aware).
    pub fn binding_init(&self, name: &str, before: usize) -> Option<Span> {
        self.lets
            .iter()
            .rfind(|l| l.name == name && l.pos < before)
            .map(|l| l.init)
    }
}

/// Index of the token matching the opening delimiter at `open`
/// (`(`/`[`/`{`), or `tokens.len()` if unbalanced.
pub fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (oc, cc) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return tokens.len(),
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Split the argument-list span `args` (contents between call parens)
/// at top-level commas.
pub fn split_args(tokens: &[Token], args: Span) -> Vec<Span> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut start = args.0;
    for (i, t) in tokens.iter().enumerate().take(args.1).skip(args.0) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push((start, i));
            start = i + 1;
        }
    }
    if start < args.1 {
        out.push((start, args.1));
    }
    out
}

/// Parse every `fn` item in the token stream.
pub fn parse(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens.get(i + 1).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
        {
            if let Some((item, next)) = parse_fn(tokens, i) {
                // Nested fns are re-discovered inside the body scan and
                // parsed as their own items; advancing past the params
                // (not the body) keeps the outer scan simple.
                out.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parse one `fn` starting at the `fn` keyword; returns the item and
/// the index to resume scanning from (just after the parameter list,
/// so nested items are still discovered).
fn parse_fn(tokens: &[Token], fn_tok: usize) -> Option<(FnItem, usize)> {
    let name = tokens[fn_tok + 1].text.clone();
    let line = tokens[fn_tok].line;
    let mut i = fn_tok + 2;
    // Skip generic parameters `<...>`. Angle brackets cannot nest with
    // shift operators inside a declaration header, so naive depth
    // counting is enough.
    if tokens.get(i).map(|t| t.is_punct('<')).unwrap_or(false) {
        let mut depth = 0isize;
        while i < tokens.len() {
            if tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    if !tokens.get(i).map(|t| t.is_punct('(')).unwrap_or(false) {
        return None;
    }
    let params_open = i;
    let params_close = match_delim(tokens, params_open);
    if params_close >= tokens.len() {
        return None;
    }
    let params = parse_params(tokens, (params_open + 1, params_close));
    let resume = params_close + 1;

    // Scan the header tail for `-> ReturnType` and the body `{` (a `;`
    // first means a trait declaration without a body).
    let mut ret = Vec::new();
    let mut j = params_close + 1;
    let mut in_ret = false;
    let mut body_open = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct(';') {
            break;
        }
        if t.is_punct('{') {
            body_open = Some(j);
            break;
        }
        if t.is_ident("where") {
            in_ret = false;
        } else if t.is_punct('>') && j > 0 && tokens[j - 1].is_punct('-') {
            in_ret = true;
        } else if in_ret && t.kind == TokKind::Ident {
            ret.push(t.text.clone());
        }
        j += 1;
    }
    let body_open = body_open?;
    let body_close = match_delim(tokens, body_open);
    let body = (body_open + 1, body_close.min(tokens.len()));

    let mut item = FnItem {
        name,
        line,
        fn_tok,
        params,
        ret,
        body,
        lets: Vec::new(),
        assigns: Vec::new(),
        guards: Vec::new(),
        loops: Vec::new(),
        tail: None,
    };
    scan_body(tokens, body, &mut item);
    Some((item, resume))
}

/// Parse a parameter-list span into [`Param`]s.
fn parse_params(tokens: &[Token], span: Span) -> Vec<Param> {
    let mut out = Vec::new();
    for arg in split_args(tokens, span) {
        let slice = &tokens[arg.0..arg.1];
        if slice.is_empty() {
            continue;
        }
        // Split at the first top-level `:` (not `::`).
        let mut colon = None;
        let mut depth = 0isize;
        for (k, t) in slice.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if t.is_punct(':')
                && depth == 0
                && !slice.get(k + 1).map(|n| n.is_punct(':')).unwrap_or(false)
                && !(k > 0 && slice[k - 1].is_punct(':'))
            {
                colon = Some(k);
                break;
            }
        }
        let (pat, ty_toks) = match colon {
            Some(c) => (&slice[..c], &slice[c + 1..]),
            None => (slice, &slice[slice.len()..]),
        };
        let name = pat
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
            .map(|t| t.text.clone());
        let Some(name) = name else { continue };
        let ty = ty_toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "dyn")
            .map(|t| t.text.clone())
            .collect();
        out.push(Param { name, ty });
    }
    out
}

/// Collect lets/assigns/guards/loops/tail from a body span.
fn scan_body(tokens: &[Token], body: Span, item: &mut FnItem) {
    let mut i = body.0;
    while i < body.1 {
        let t = &tokens[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "let" => {
                    let next = scan_let(tokens, body, i, item);
                    i = next;
                    continue;
                }
                "if" => {
                    if let Some((guard, _)) = scan_block_after(tokens, body, i + 1) {
                        item.guards.push(Guard { cond: guard.head, body: guard.body });
                    }
                    // Do not skip the body: nested constructs inside it
                    // must be collected too.
                }
                "for" | "while" | "loop" => {
                    // `for` also appears in `impl Trait for T` and
                    // `for<'a>` bounds; requiring a brace-delimited
                    // block in statement position filters most, and the
                    // passes only consume loops containing calls, so a
                    // rare false span is harmless.
                    if let Some((lp, _)) = scan_block_after(tokens, body, i + 1) {
                        item.loops.push(Loop { head: lp.head, body: lp.body });
                    }
                }
                _ => {}
            }
        } else if t.is_punct('=') && i + 1 < body.1 && !tokens[i + 1].is_punct('=') {
            if let Some(assign) = scan_assign(tokens, body, i) {
                item.assigns.push(assign);
            }
        }
        i += 1;
    }
    item.tail = find_tail(tokens, body);
    item.lets.sort_by_key(|l| l.pos);
    item.assigns.sort_by_key(|a| a.pos);
}

/// Parse `let [mut] <pat> [: ty] = init (;|else)` starting at the
/// `let` token; returns the index to resume from.
fn scan_let(tokens: &[Token], body: Span, let_tok: usize, item: &mut FnItem) -> usize {
    let line = tokens[let_tok].line;
    let mut i = let_tok + 1;
    let mut names = Vec::new();
    // Pattern: identifiers up to `:` (type) or `=` (init), at depth 0.
    let mut depth = 0isize;
    let mut colon = None;
    let mut eq = None;
    while i < body.1 {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(':')
            && depth == 0
            && colon.is_none()
            && !tokens.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            && !(i > 0 && tokens[i - 1].is_punct(':'))
        {
            colon = Some(i);
        } else if t.is_punct('=') && depth == 0 {
            // `==` cannot appear before the init's `=`; `<=`/`>=` are
            // inside depth from `<`.
            eq = Some(i);
            break;
        } else if t.is_punct(';') && depth == 0 {
            break;
        } else if t.kind == TokKind::Ident
            && colon.is_none()
            && !matches!(t.text.as_str(), "mut" | "ref" | "box")
        {
            names.push(t.text.clone());
        }
        i += 1;
    }
    let ty: Vec<String> = match (colon, eq) {
        (Some(c), Some(e)) => tokens[c + 1..e]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "dyn")
            .map(|t| t.text.clone())
            .collect(),
        (Some(c), None) => tokens[c + 1..i.min(body.1)]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "dyn")
            .map(|t| t.text.clone())
            .collect(),
        _ => Vec::new(),
    };
    // Initializer: from after `=` to the `;` at this brace depth (or a
    // `{` when this is an `if let`/`while let` condition). The scan
    // resumes from just after the `=`, NOT after the initializer —
    // closures and blocks inside the init (`par_map(.., |x| { let .. })`)
    // carry bindings and guards that must still be collected.
    let (init, resume) = match eq {
        Some(e) => {
            let mut j = e + 1;
            let mut pd = 0isize; // paren/bracket depth
            let mut bd = 0isize; // brace depth (closures, blocks)
            while j < body.1 {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    pd += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    if pd == 0 {
                        break; // unbalanced: `let` inside a call argument
                    }
                    pd -= 1;
                } else if t.is_punct('{') {
                    // An `if let`'s success block starts here.
                    if pd == 0 && bd == 0 && is_if_let(tokens, let_tok) {
                        break;
                    }
                    bd += 1;
                } else if t.is_punct('}') {
                    if bd == 0 {
                        break;
                    }
                    bd -= 1;
                } else if t.is_punct(';') && pd == 0 && bd == 0 {
                    break;
                }
                j += 1;
            }
            ((e + 1, j), e + 1)
        }
        None => ((let_tok, let_tok), i),
    };
    // Patterns that hold no identifier (e.g. `let _ = …`) record
    // nothing; multi-name destructures share the init span.
    for name in names {
        item.lets.push(LetBind { name, line, ty: ty.clone(), init, pos: let_tok });
    }
    resume.max(let_tok + 1)
}

/// True if the `let` at `let_tok` is an `if let` / `while let`.
fn is_if_let(tokens: &[Token], let_tok: usize) -> bool {
    let_tok > 0
        && (tokens[let_tok - 1].is_ident("if") || tokens[let_tok - 1].is_ident("while"))
}

/// Parse a plain assignment around the `=` at `eq`; returns `None` for
/// compound operators, comparisons, and `let` initializers (those are
/// captured by [`scan_let`]).
fn scan_assign(tokens: &[Token], body: Span, eq: usize) -> Option<Assign> {
    if eq == 0 {
        return None;
    }
    let prev = &tokens[eq - 1];
    // `x += / -= / == / != / <= / >= / => =` forms are not plain
    // assignments; a plain one has an identifier, `]`, or `)` directly
    // before the `=`.
    if prev.kind == TokKind::Punct && !prev.is_punct(']') {
        return None;
    }
    // Walk the lvalue chain backward to its base identifier:
    // `base.field[idx].field = …`.
    let mut k = eq - 1;
    loop {
        let t = &tokens[k];
        if t.is_punct(']') {
            // Find the matching `[`.
            let mut depth = 0isize;
            while k > 0 {
                if tokens[k].is_punct(']') {
                    depth += 1;
                } else if tokens[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        } else if t.kind == TokKind::Ident {
            if k >= 1 && tokens[k - 1].is_punct('.') && k >= 2 {
                k -= 2;
            } else {
                break;
            }
        } else {
            return None;
        }
    }
    let base = &tokens[k];
    if base.kind != TokKind::Ident || matches!(base.text.as_str(), "let" | "mut" | "ref") {
        return None;
    }
    // A `let` two tokens back (`let x =`, `let mut x =`) means this
    // `=` is an initializer, already captured by `scan_let`.
    if k >= 1
        && (tokens[k - 1].is_ident("let")
            || tokens[k - 1].is_ident("mut") && k >= 2 && tokens[k - 2].is_ident("let"))
    {
        return None;
    }
    // RHS: to the statement-terminating `;` at balanced depth.
    let mut j = eq + 1;
    let mut pd = 0isize;
    let mut bd = 0isize;
    while j < body.1 {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            pd += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if pd == 0 {
                break;
            }
            pd -= 1;
        } else if t.is_punct('{') {
            bd += 1;
        } else if t.is_punct('}') {
            if bd == 0 {
                break;
            }
            bd -= 1;
        } else if t.is_punct(';') && pd == 0 && bd == 0 {
            break;
        }
        j += 1;
    }
    Some(Assign { name: base.text.clone(), line: base.line, rhs: (eq + 1, j), pos: eq })
}

/// Header/body pair for a construct whose block opens at the first
/// depth-0 `{` after `start`. Returns the pair and the body-close
/// index.
fn scan_block_after(tokens: &[Token], body: Span, start: usize) -> Option<(Loop, usize)> {
    let mut j = start;
    let mut depth = 0isize;
    while j < body.1 {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            let close = match_delim(tokens, j);
            if close > body.1 {
                return None;
            }
            return Some((Loop { head: (start, j), body: (j + 1, close) }, close));
        } else if (t.is_punct(';') || t.is_punct('}')) && depth <= 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Best-effort trailing expression of the body: the tokens after the
/// last statement boundary (`;` or block close) at the body's own
/// depth.
fn find_tail(tokens: &[Token], body: Span) -> Option<Span> {
    let mut last_boundary = body.0;
    let mut i = body.0;
    while i < body.1 {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            let close = match_delim(tokens, i);
            if close >= body.1 {
                return None;
            }
            // A block in statement position is a boundary; a block
            // inside an expression (followed by `.`/operator/`;`) is
            // not — distinguishing precisely needs full grammar, so
            // treat any top-level close followed by more tokens as a
            // boundary only when a `;` follows or nothing follows.
            if t.is_punct('{') {
                last_boundary = close + 1;
            }
            i = close + 1;
            continue;
        }
        if t.is_punct(';') {
            last_boundary = i + 1;
        }
        i += 1;
    }
    if last_boundary < body.1 {
        Some((last_boundary, body.1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<FnItem> {
        parse(&lex(src).tokens)
    }

    fn texts(tokens: &[Token], span: Span) -> Vec<&str> {
        tokens[span.0..span.1].iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn fn_header_params_and_ret() {
        let fns = parse_src(
            "pub fn deal<F: Field, R: Rng + ?Sized>(rng: &mut R, sk: &SecretKey, n: usize) \
             -> Vec<u8> where F: Clone { body() }",
        );
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "deal");
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["rng", "sk", "n"]);
        assert_eq!(f.params[1].ty, ["SecretKey"]);
        assert_eq!(f.ret, ["Vec", "u8"]);
    }

    #[test]
    fn self_receiver_and_empty_ret() {
        let fns = parse_src("impl A { fn go(&mut self, x: u32) { } }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].params[0].name, "self");
        assert!(fns[0].ret.is_empty());
    }

    #[test]
    fn lets_capture_init_and_type() {
        let src = "fn f() { let mut x: Vec<u8> = source(); let (a, b) = pair(); x = other(a); }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let f = &fns[0];
        assert_eq!(f.lets.len(), 3);
        assert_eq!(f.lets[0].name, "x");
        assert_eq!(f.lets[0].ty, ["Vec", "u8"]);
        assert!(texts(&lexed.tokens, f.lets[0].init).contains(&"source"));
        assert_eq!(f.lets[1].name, "a");
        assert_eq!(f.lets[2].name, "b");
        assert_eq!(f.lets[1].init, f.lets[2].init);
        assert_eq!(f.assigns.len(), 1);
        assert_eq!(f.assigns[0].name, "x");
        assert!(texts(&lexed.tokens, f.assigns[0].rhs).contains(&"other"));
    }

    #[test]
    fn compound_ops_are_not_assignments() {
        let fns = parse_src("fn f() { x += 1; y == z; a <= b; c.d[0] = e; }");
        assert_eq!(fns[0].assigns.len(), 1);
        assert_eq!(fns[0].assigns[0].name, "c");
    }

    #[test]
    fn guards_and_loops() {
        let src = "fn f() { if sb.is_leader() { post(); } for i in 0..n { let s = rng.next_u64(); } }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let f = &fns[0];
        assert_eq!(f.guards.len(), 1);
        assert!(texts(&lexed.tokens, f.guards[0].cond).contains(&"is_leader"));
        assert!(texts(&lexed.tokens, f.guards[0].body).contains(&"post"));
        assert_eq!(f.loops.len(), 1);
        assert!(texts(&lexed.tokens, f.loops[0].body).contains(&"next_u64"));
        // The let inside the loop body is still collected.
        assert!(f.lets.iter().any(|l| l.name == "s"));
    }

    #[test]
    fn guarded_by_resolves_containment() {
        let src = "fn f() { if p.owns(i) { inner(); } outer(); }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let f = &fns[0];
        let inner_idx = lexed.tokens.iter().position(|t| t.is_ident("inner")).unwrap();
        let outer_idx = lexed.tokens.iter().position(|t| t.is_ident("outer")).unwrap();
        let guarded_by_owns = |idx: usize| {
            f.guards.iter().any(|g| {
                g.body.0 <= idx
                    && idx < g.body.1
                    && lexed.tokens[g.cond.0..g.cond.1].iter().any(|t| t.is_ident("owns"))
            })
        };
        assert!(guarded_by_owns(inner_idx));
        assert!(!guarded_by_owns(outer_idx));
    }

    #[test]
    fn if_let_init_stops_at_block() {
        let src = "fn f() { if let Some(x) = find(v) { use_it(x); } }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let f = &fns[0];
        let x = f.lets.iter().find(|l| l.name == "x").unwrap();
        let init = texts(&lexed.tokens, x.init);
        assert!(init.contains(&"find"));
        assert!(!init.contains(&"use_it"));
    }

    #[test]
    fn tail_expression_detected() {
        let src = "fn f() -> u64 { let x = a(); x + 1 }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let tail = fns[0].tail.expect("tail");
        assert!(texts(&lexed.tokens, tail).contains(&"x"));
    }

    #[test]
    fn nested_fn_discovered_separately() {
        let fns = parse_src("fn outer() { fn inner(q: u8) { } let z = 1; }");
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn binding_lookup_is_shadowing_aware() {
        let src = "fn f() { let x = secret(); let x = encrypt(x); sink(x); }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let f = &fns[0];
        let sink_idx = lexed.tokens.iter().position(|t| t.is_ident("sink")).unwrap();
        let init = f.binding_init("x", sink_idx).unwrap();
        assert!(texts(&lexed.tokens, init).contains(&"encrypt"));
    }

    #[test]
    fn closure_bodies_do_not_break_let_spans() {
        let src = "fn f() { let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect(); done(); }";
        let lexed = lex(src);
        let fns = parse(&lexed.tokens);
        let l = &fns[0].lets[0];
        let init = texts(&lexed.tokens, l.init);
        assert!(init.contains(&"collect"));
        assert!(!init.contains(&"done"));
    }
}
