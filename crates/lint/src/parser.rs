//! A lightweight item-level parser over the token stream.
//!
//! This is not a Rust grammar: it recovers exactly the structure the rules
//! need — function signatures and body extents (with their enclosing
//! `impl` type), struct definitions with derive lists and field types,
//! `impl Trait for Type` headers, the crate-root
//! `#![forbid(unsafe_code)]` attribute, `pub` item declarations, the
//! extents of `#[cfg(test)]` items and `mod name;` declarations.
//! Everything else passes through as anonymous tokens. Brace depth is
//! tracked globally, so expression braces (struct literals, match arms)
//! nest correctly around item extents.

use crate::lexer::{Lexed, Tok, Token};

/// A function item: free or associated, with its body's token extent.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// `Type::name` when defined inside an `impl Type` block.
    pub qualified: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line where the item's leading attributes start (== `line` without
    /// attributes) — the anchor for item-level suppression comments.
    pub decl_line: u32,
    /// The return type, whitespace-normalized (empty for `()`).
    pub ret: String,
    /// Token index range `[start, end]` of the body braces, when present.
    pub body: Option<(usize, usize)>,
    /// Line of the body's closing brace (== `line` for bodyless decls).
    pub end_line: u32,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// Whitespace-normalized type text (`u64`, `Option<u64>`, …).
    pub ty: String,
    pub line: u32,
}

/// A `struct`/`enum`/`union` definition.
#[derive(Debug, Clone)]
pub struct TypeDef {
    pub name: String,
    pub line: u32,
    /// See [`FnItem::decl_line`].
    pub decl_line: u32,
    pub end_line: u32,
    /// Traits named in `#[derive(...)]` attributes on this item.
    pub derives: Vec<String>,
    /// Named fields (empty for enums, tuple and unit structs).
    pub fields: Vec<Field>,
}

/// An `impl` header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The self type's final path-segment name.
    pub self_ty: String,
    /// The implemented trait's final path-segment name, if any.
    pub trait_name: Option<String>,
    pub line: u32,
}

/// A `pub` item (bare `pub`, not `pub(crate)` and the like): a free or
/// associated `fn`, a `struct`, `enum`, `trait`, `type`, `const`,
/// `static` or `mod`.
#[derive(Debug, Clone)]
pub struct PubItem {
    pub name: String,
    /// The item keyword (`fn`, `struct`, …).
    pub kind: &'static str,
    /// Line of the `pub` token.
    pub line: u32,
    /// See [`FnItem::decl_line`].
    pub decl_line: u32,
    pub end_line: u32,
    /// Token index range `[pub, end]` of the whole item.
    pub span: (usize, usize),
}

/// A `mod name;` declaration: its body lives in another file.
#[derive(Debug, Clone)]
pub struct ModDecl {
    pub name: String,
    /// Token index of the `mod` keyword.
    pub at: usize,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeDef>,
    pub impls: Vec<ImplDef>,
    pub pub_items: Vec<PubItem>,
    /// Token index ranges of `#[cfg(test)]` items, attribute included.
    pub test_spans: Vec<(usize, usize)>,
    pub file_mods: Vec<ModDecl>,
    /// The file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

impl FileModel {
    /// The innermost function whose body contains token index `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= idx && idx <= e))
            .min_by_key(|f| f.body.map(|(s, e)| e - s).unwrap_or(usize::MAX))
    }

    /// True when token index `idx` lies inside a `#[cfg(test)]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= idx && idx <= e)
    }
}

/// Item keywords a `pub` item can start with (after qualifiers).
const PUB_ITEM_KINDS: [&str; 8] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// The token index ending the item that starts at `start`: its `;` or the
/// brace closing its body, whichever comes first at nesting level 0.
fn item_end(toks: &[Token], start: usize) -> usize {
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    for (i, t) in toks.iter().enumerate().skip(start) {
        match t.tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct('{') => brace += 1,
            Tok::Punct('}') => {
                brace -= 1;
                if brace <= 0 && paren == 0 && bracket == 0 {
                    return i;
                }
            }
            Tok::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => return i,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Parses a lexed file into its item model.
pub fn parse(lexed: &Lexed) -> FileModel {
    Parser {
        toks: &lexed.tokens,
        i: 0,
        depth: 0,
        model: FileModel::default(),
        impl_stack: Vec::new(),
        open_fns: Vec::new(),
        pending_derives: Vec::new(),
        pending_attr_line: None,
    }
    .run()
}

struct OpenFn {
    index: usize,
    open_depth: u32,
}

struct OpenImpl {
    self_ty: String,
    open_depth: u32,
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    depth: u32,
    model: FileModel,
    impl_stack: Vec<OpenImpl>,
    open_fns: Vec<OpenFn>,
    pending_derives: Vec<String>,
    pending_attr_line: Option<u32>,
}

impl Parser<'_> {
    fn run(mut self) -> FileModel {
        while self.i < self.toks.len() {
            let line = self.toks[self.i].line;
            match &self.toks[self.i].tok {
                Tok::Punct('#') => self.attribute(),
                Tok::Punct('{') => {
                    self.depth += 1;
                    self.i += 1;
                }
                Tok::Punct('}') => {
                    while self.open_fns.last().is_some_and(|f| f.open_depth == self.depth) {
                        let f = self.open_fns.pop().expect("checked non-empty");
                        let item = &mut self.model.fns[f.index];
                        item.body = item.body.map(|(s, _)| (s, self.i));
                        item.end_line = line;
                    }
                    while self.impl_stack.last().is_some_and(|im| im.open_depth == self.depth) {
                        self.impl_stack.pop();
                    }
                    self.depth = self.depth.saturating_sub(1);
                    self.i += 1;
                }
                Tok::Ident(kw) if kw == "struct" || kw == "enum" || kw == "union" => {
                    let is_struct = kw == "struct";
                    self.type_def(is_struct, line);
                }
                Tok::Ident(kw) if kw == "impl" => self.impl_header(line),
                Tok::Ident(kw) if kw == "pub" => {
                    self.pub_item(line);
                    self.i += 1;
                }
                Tok::Ident(kw)
                    if kw == "mod"
                        && self.is_ident(self.i + 1)
                        && self.punct_at(self.i + 2) == Some(';') =>
                {
                    let name = self.ident_at(self.i + 1).unwrap_or_default().to_string();
                    self.model.file_mods.push(ModDecl { name, at: self.i });
                    self.i += 3;
                }
                Tok::Ident(kw) if kw == "fn" && self.is_ident(self.i + 1) => self.fn_item(line),
                _ => self.i += 1,
            }
        }
        self.model
    }

    fn is_ident(&self, idx: usize) -> bool {
        matches!(self.toks.get(idx).map(|t| &t.tok), Some(Tok::Ident(_)))
    }

    fn ident_at(&self, idx: usize) -> Option<&str> {
        match self.toks.get(idx).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, idx: usize) -> Option<char> {
        match self.toks.get(idx).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    /// `#[...]` / `#![...]`: records derives and `forbid(unsafe_code)`,
    /// then skips to the closing bracket.
    fn attribute(&mut self) {
        let line = self.toks[self.i].line;
        let mut j = self.i + 1;
        let inner_attr = self.punct_at(j) == Some('!');
        if inner_attr {
            j += 1;
        }
        if self.punct_at(j) != Some('[') {
            self.i += 1;
            return;
        }
        let start = j + 1;
        let mut bracket = 1u32;
        j += 1;
        while j < self.toks.len() && bracket > 0 {
            match self.punct_at(j) {
                Some('[') => bracket += 1,
                Some(']') => bracket -= 1,
                _ => {}
            }
            j += 1;
        }
        let inner: Vec<String> =
            (start..j - 1).filter_map(|k| self.ident_at(k).map(str::to_string)).collect();
        if inner.first().map(String::as_str) == Some("derive") {
            self.pending_derives.extend(inner.iter().skip(1).cloned());
        }
        if inner.iter().any(|s| s == "forbid") && inner.iter().any(|s| s == "unsafe_code") {
            self.model.has_forbid_unsafe = true;
        }
        if !inner_attr {
            self.pending_attr_line.get_or_insert(line);
            if inner == ["cfg", "test"] {
                self.model.test_spans.push((self.i, item_end(self.toks, j)));
            }
        }
        self.i = j;
    }

    /// Records the `pub` item starting at `self.i`, if it is one; leaves
    /// `self.i` on the `pub` so the item itself is parsed as usual.
    fn pub_item(&mut self, line: u32) {
        let mut j = self.i + 1;
        // Qualifiers: `const fn`, `async fn`, `unsafe fn`.
        while matches!(self.ident_at(j), Some("const" | "async" | "unsafe"))
            && matches!(self.ident_at(j + 1), Some("fn" | "const" | "async" | "unsafe"))
        {
            j += 1;
        }
        let Some(kind) = self.ident_at(j).and_then(|k| PUB_ITEM_KINDS.iter().find(|&&p| p == k))
        else {
            return;
        };
        j += 1;
        if *kind == "static" && self.ident_at(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = self.ident_at(j).map(str::to_string) else { return };
        let decl_line = self.pending_attr_line.unwrap_or(line);
        if !matches!(*kind, "fn" | "struct" | "enum") {
            // Only fn and type items consume a pending attribute line.
            self.pending_attr_line = None;
        }
        let end = item_end(self.toks, j);
        self.model.pub_items.push(PubItem {
            name,
            kind,
            line,
            decl_line,
            end_line: self.toks[end].line,
            span: (self.i, end),
        });
    }

    /// Skips a balanced `<...>` group starting at `self.i` (which must be
    /// `<`), tolerating `->` arrows inside bounds.
    fn skip_generics(&mut self) {
        let mut angle = 0i32;
        while self.i < self.toks.len() {
            match self.punct_at(self.i) {
                Some('<') => angle += 1,
                // `->` is an arrow, not a closing angle.
                Some('>') if self.punct_at(self.i.wrapping_sub(1)) != Some('-') => angle -= 1,
                _ => {}
            }
            self.i += 1;
            if angle == 0 {
                break;
            }
        }
    }

    fn type_def(&mut self, is_struct: bool, line: u32) {
        self.i += 1; // the keyword
        let Some(name) = self.ident_at(self.i).map(str::to_string) else {
            return;
        };
        self.i += 1;
        let derives = std::mem::take(&mut self.pending_derives);
        let decl_line = self.pending_attr_line.take().unwrap_or(line);
        if self.punct_at(self.i) == Some('<') {
            self.skip_generics();
        }
        // Optional where clause tokens pass until the body/terminator.
        let mut fields = Vec::new();
        let mut end_line = line;
        while self.i < self.toks.len() {
            match self.punct_at(self.i) {
                Some(';') => {
                    end_line = self.toks[self.i].line;
                    self.i += 1;
                    break;
                }
                Some('(') => {
                    // Tuple struct: skip the parenthesized fields.
                    let mut paren = 0i32;
                    while self.i < self.toks.len() {
                        match self.punct_at(self.i) {
                            Some('(') => paren += 1,
                            Some(')') => paren -= 1,
                            _ => {}
                        }
                        self.i += 1;
                        if paren == 0 {
                            break;
                        }
                    }
                }
                Some('{') => {
                    end_line =
                        if is_struct { self.struct_body(&mut fields) } else { self.skip_braced() };
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.model.types.push(TypeDef { name, line, decl_line, end_line, derives, fields });
    }

    /// Skips a balanced `{...}` starting at `self.i`; returns the closing
    /// brace's line.
    fn skip_braced(&mut self) -> u32 {
        let mut brace = 0i32;
        let mut end_line = self.toks[self.i].line;
        while self.i < self.toks.len() {
            match self.punct_at(self.i) {
                Some('{') => brace += 1,
                Some('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = self.toks[self.i].line;
                        self.i += 1;
                        break;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        end_line
    }

    /// Parses `{ field: Type, ... }` (attributes and visibility skipped);
    /// `self.i` is at the opening brace. Returns the closing brace's line.
    fn struct_body(&mut self, fields: &mut Vec<Field>) -> u32 {
        self.i += 1; // opening brace
        loop {
            // Skip field attributes.
            while self.punct_at(self.i) == Some('#') {
                self.attribute();
                self.pending_attr_line = None;
            }
            if self.punct_at(self.i) == Some('}') {
                let end = self.toks[self.i].line;
                self.i += 1;
                return end;
            }
            if self.i >= self.toks.len() {
                return self.toks.last().map(|t| t.line).unwrap_or(0);
            }
            // Visibility.
            if self.ident_at(self.i) == Some("pub") {
                self.i += 1;
                if self.punct_at(self.i) == Some('(') {
                    while self.i < self.toks.len() && self.punct_at(self.i) != Some(')') {
                        self.i += 1;
                    }
                    self.i += 1;
                }
            }
            let Some(name) = self.ident_at(self.i).map(str::to_string) else {
                self.i += 1;
                continue;
            };
            let line = self.toks[self.i].line;
            self.i += 1;
            if self.punct_at(self.i) != Some(':') {
                continue;
            }
            self.i += 1;
            // Type text until a top-level comma or the closing brace.
            let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
            let mut ty = String::new();
            while self.i < self.toks.len() {
                match &self.toks[self.i].tok {
                    Tok::Punct(',') if angle == 0 && paren == 0 && bracket == 0 => {
                        self.i += 1;
                        break;
                    }
                    Tok::Punct('}') if angle == 0 && paren == 0 && bracket == 0 => break,
                    tok => {
                        let arrow = matches!(tok, Tok::Punct('>'))
                            && self.punct_at(self.i.wrapping_sub(1)) == Some('-');
                        match tok {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') if !arrow => angle -= 1,
                            Tok::Punct('(') => paren += 1,
                            Tok::Punct(')') => paren -= 1,
                            Tok::Punct('[') => bracket += 1,
                            Tok::Punct(']') => bracket -= 1,
                            _ => {}
                        }
                        push_normalized(&mut ty, tok);
                        self.i += 1;
                    }
                }
            }
            fields.push(Field { name, ty, line });
        }
    }

    fn impl_header(&mut self, line: u32) {
        self.i += 1; // `impl`
        self.pending_derives.clear();
        self.pending_attr_line = None;
        if self.punct_at(self.i) == Some('<') {
            self.skip_generics();
        }
        // Collect header idents until the body `{` (or a terminating `;`),
        // splitting on a top-level `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i32;
        while self.i < self.toks.len() {
            match &self.toks[self.i].tok {
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Punct(';') if angle <= 0 => {
                    self.i += 1;
                    return;
                }
                Tok::Punct('<') => {
                    angle += 1;
                    self.i += 1;
                }
                Tok::Punct('>') => {
                    if self.punct_at(self.i.wrapping_sub(1)) != Some('-') {
                        angle -= 1;
                    }
                    self.i += 1;
                }
                Tok::Ident(id) if id == "for" && angle == 0 => {
                    saw_for = true;
                    self.i += 1;
                }
                Tok::Ident(id) if id == "where" && angle == 0 => {
                    self.i += 1;
                }
                Tok::Ident(id) => {
                    if angle == 0 {
                        if saw_for {
                            after_for.push(id.clone());
                        } else {
                            before_for.push(id.clone());
                        }
                    }
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let (trait_name, self_ty) = if saw_for {
            (before_for.last().cloned(), after_for.last().cloned().unwrap_or_default())
        } else {
            (None, before_for.last().cloned().unwrap_or_default())
        };
        self.model.impls.push(ImplDef { self_ty: self_ty.clone(), trait_name, line });
        if self.punct_at(self.i) == Some('{') {
            self.depth += 1;
            self.i += 1;
            self.impl_stack.push(OpenImpl { self_ty, open_depth: self.depth });
        }
    }

    fn fn_item(&mut self, line: u32) {
        self.i += 1; // `fn`
        let name = self.ident_at(self.i).unwrap_or_default().to_string();
        self.i += 1;
        let decl_line = self.pending_attr_line.take().unwrap_or(line);
        self.pending_derives.clear();
        let qualified = match self.impl_stack.last() {
            Some(im) if im.open_depth == self.depth => format!("{}::{name}", im.self_ty),
            _ => name.clone(),
        };
        // Signature: scan to the body `{` or terminating `;` at depth 0,
        // capturing the return type after a top-level `->`.
        let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
        let mut ret = String::new();
        let mut in_ret = false;
        while self.i < self.toks.len() {
            let top = angle <= 0 && paren == 0 && bracket == 0;
            match &self.toks[self.i].tok {
                Tok::Punct('{') if top => break,
                Tok::Punct(';') if top => {
                    self.i += 1;
                    self.model.fns.push(FnItem {
                        name,
                        qualified,
                        line,
                        decl_line,
                        ret,
                        body: None,
                        end_line: line,
                    });
                    return;
                }
                Tok::Ident(id) if top && id == "where" => {
                    in_ret = false;
                    self.i += 1;
                }
                tok => {
                    let arrow = matches!(tok, Tok::Punct('>'))
                        && self.punct_at(self.i.wrapping_sub(1)) == Some('-');
                    match tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') if !arrow => angle -= 1,
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct('[') => bracket += 1,
                        Tok::Punct(']') => bracket -= 1,
                        _ => {}
                    }
                    if in_ret {
                        push_normalized(&mut ret, tok);
                    }
                    if arrow && angle <= 0 && paren == 0 && bracket == 0 {
                        in_ret = true;
                        // Drop the arrow characters captured so far.
                        ret.clear();
                    }
                    self.i += 1;
                }
            }
        }
        if self.punct_at(self.i) == Some('{') {
            self.depth += 1;
            let body_start = self.i;
            self.i += 1;
            self.model.fns.push(FnItem {
                name,
                qualified,
                line,
                decl_line,
                ret,
                body: Some((body_start, body_start)),
                end_line: line,
            });
            self.open_fns.push(OpenFn { index: self.model.fns.len() - 1, open_depth: self.depth });
        }
    }
}

/// Appends a token's text to a whitespace-free normalized string.
fn push_normalized(out: &mut String, tok: &Tok) {
    match tok {
        Tok::Ident(s) => out.push_str(s),
        Tok::Punct(c) => out.push(*c),
        Tok::Lifetime(l) => {
            out.push('\'');
            out.push_str(l);
        }
        Tok::Str(_) => out.push_str("\"…\""),
        Tok::Char => out.push_str("'…'"),
        Tok::Num(n) => out.push_str(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        parse(&lex(src))
    }

    #[test]
    fn finds_fns_with_qualification_and_return_types() {
        let m = model(
            "impl BrokerStats {\n\
                 pub fn snapshot(&self) -> Vec<(&'static str, u64)> { vec![] }\n\
             }\n\
             fn free_one(x: u32) -> u32 { x }\n\
             trait T { fn decl_only(&self); }\n",
        );
        let snap = m.fns.iter().find(|f| f.name == "snapshot").expect("snapshot parsed");
        assert_eq!(snap.qualified, "BrokerStats::snapshot");
        assert_eq!(snap.ret, "Vec<(&'staticstr,u64)>");
        assert!(snap.body.is_some());
        let decl = m.fns.iter().find(|f| f.name == "decl_only").expect("decl parsed");
        assert!(decl.body.is_none());
    }

    #[test]
    fn struct_fields_and_derives() {
        let m = model(
            "#[derive(Debug, Clone, Copy)]\n\
             pub struct Stats {\n\
                 /// Doc.\n\
                 pub a: u64,\n\
                 b: Option<u64>,\n\
                 c: HashMap<ClientId, usize>,\n\
             }\n",
        );
        let s = &m.types[0];
        assert_eq!(s.name, "Stats");
        assert_eq!(s.derives, ["Debug", "Clone", "Copy"]);
        let tys: Vec<&str> = s.fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, ["u64", "Option<u64>", "HashMap<ClientId,usize>"]);
    }

    #[test]
    fn impl_trait_for_type_headers() {
        let m = model(
            "impl std::fmt::Debug for SymmetricKey { fn fmt(&self) {} }\n\
             impl<T: Fn() -> u32> Holder<T> { fn get(&self) {} }\n",
        );
        assert_eq!(m.impls[0].self_ty, "SymmetricKey");
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("Debug"));
        assert_eq!(m.impls[1].self_ty, "Holder");
        assert_eq!(m.impls[1].trait_name, None);
        assert_eq!(m.fns[1].qualified, "Holder::get");
    }

    #[test]
    fn forbid_unsafe_is_detected() {
        assert!(model("#![forbid(unsafe_code)]\nfn main() {}").has_forbid_unsafe);
        assert!(!model("#![warn(missing_docs)]\nfn main() {}").has_forbid_unsafe);
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let m = model("fn outer() { fn inner() { marker(); } }");
        let marker = 12; // token index of `marker` — resolved below instead.
        let _ = marker;
        let inner = m.fns.iter().find(|f| f.name == "inner").expect("inner");
        let (s, e) = inner.body.expect("body");
        let mid = (s + e) / 2;
        assert_eq!(m.enclosing_fn(mid).map(|f| f.name.as_str()), Some("inner"));
    }

    #[test]
    fn pub_items_test_spans_and_file_mods() {
        let m = model(
            "pub const fn a() {}\n\
             pub(crate) fn hidden() {}\n\
             pub static mut COUNT: u32 = 0;\n\
             pub mod inline { pub trait T {} }\n\
             #[cfg(test)]\n\
             mod helpers;\n\
             #[cfg(test)]\n\
             mod tests { pub fn t() {} }\n",
        );
        let items: Vec<(&str, &str)> =
            m.pub_items.iter().map(|p| (p.kind, p.name.as_str())).collect();
        assert_eq!(
            items,
            [("fn", "a"), ("static", "COUNT"), ("mod", "inline"), ("trait", "T"), ("fn", "t")]
        );
        assert_eq!(m.pub_items[2].end_line, 4, "an inline module spans its braces");
        assert_eq!(m.file_mods.len(), 1);
        assert!(m.in_test(m.file_mods[0].at));
        assert!(m.in_test(m.pub_items[4].span.0), "items inside a cfg(test) module");
        assert!(!m.in_test(m.pub_items[0].span.0));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let m = model("struct S { f: fn(u32) -> u32 }");
        assert!(m.fns.is_empty());
        assert_eq!(m.types[0].fields[0].ty, "fn(u32)->u32");
    }
}
