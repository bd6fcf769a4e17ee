//! Offline replacement for serde's `#[derive(Serialize, Deserialize)]`,
//! companion to the vendored `serde` shim in `crates/compat/serde`.
//!
//! The macros parse the annotated item directly from the proc-macro token
//! stream (no `syn`/`quote`, which are unavailable offline) and emit
//! implementations of the shim's `Serialize`/`Deserialize` traits: the
//! `serde::Value` tree methods, plus direct `write_binary`/`read_binary`
//! methods that go between the fields and the `serde::binary` bytes
//! without building a tree.
//!
//! Supported shapes — exactly what this workspace derives:
//! named-field structs and enums with unit, tuple and struct variants.
//! `Serialize` also accepts lifetime parameters (`Borrowed<'a>`); other
//! generic parameters are not supported. Field and variant attributes
//! (`#[serde(...)]`) are not supported and doc comments are ignored. As
//! in real serde, a field of type `Option<...>` may be absent: a missing
//! key reads as `None`, like `null`; any other missing field is refused.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct FieldDef {
    name: String,
    /// The field's type, as source text.
    ty: String,
}

impl FieldDef {
    /// Whether the field may be absent (its type is an `Option`).
    fn optional(&self) -> bool {
        self.ty.starts_with("Option <")
    }

    /// The struct-literal initializer reading the field from the map
    /// entries bound to `entries`.
    fn read_from_entries(&self, entries: &str) -> String {
        let lookup = if self.optional() {
            "map_get_or_default"
        } else {
            "map_get_deserialize"
        };
        format!("{0}: ::serde::{lookup}({entries}, \"{0}\")?,\n", self.name)
    }
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<FieldDef>),
}

#[derive(Debug)]
struct VariantDef {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Body {
    Struct(Vec<FieldDef>),
    Enum(Vec<VariantDef>),
}

#[derive(Debug)]
struct ItemDef {
    name: String,
    /// Lifetime parameters without the angle brackets (`'a, 'b`), empty
    /// for a non-generic item.
    lifetimes: String,
    body: Body,
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (to_value, write_binary) = match &item.body {
        Body::Struct(fields) => (serialize_struct(fields), write_struct(fields)),
        Body::Enum(variants) => (
            serialize_enum(&item.name, variants),
            write_enum(&item.name, variants),
        ),
    };
    let ItemDef { name, lifetimes, .. } = &item;
    format!(
        "impl<{lifetimes}> ::serde::Serialize for {name}<{lifetimes}> {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{to_value}}}\n\
         fn write_binary(&self, __out: &mut ::std::vec::Vec<u8>) {{\n{write_binary}}}\n\
         }}\n"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    if !item.lifetimes.is_empty() {
        panic!("the offline serde derive cannot deserialize the generic type `{name}`");
    }
    let (from_value, read_binary) = match &item.body {
        Body::Struct(fields) => (
            deserialize_struct(name, fields),
            read_fields(name, fields, "__depth"),
        ),
        Body::Enum(variants) => (deserialize_enum(name, variants), read_enum(name, variants)),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__value: &::serde::Value) \
         -> ::core::result::Result<Self, ::serde::DeError> {{\n{from_value}}}\n\
         fn read_binary(__reader: &mut ::serde::binary::Reader<'_>, __depth: usize) \
         -> ::core::result::Result<Self, ::serde::DeError> {{\n{read_binary}}}\n\
         }}\n"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> ItemDef {
    let mut tokens = input.into_iter().peekable();
    skip_attributes_and_visibility(&mut tokens);

    let keyword = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("expected item name, found {other:?}"),
    };
    let mut lifetimes = TokenStream::new();
    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                break group.stream();
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                lifetimes = parse_lifetimes(&name, &mut tokens)
            }
            Some(_) => continue,
            None => panic!("missing body for `{name}`"),
        }
    };

    let body = match keyword.as_str() {
        "struct" => Body::Struct(parse_fields(body)),
        "enum" => Body::Enum(parse_variants(body)),
        other => panic!("cannot derive serde impls for `{other}` items"),
    };
    ItemDef {
        name,
        lifetimes: lifetimes.to_string(),
        body,
    }
}

/// Collects the parameter list after `<` up to the closing `>`, refusing
/// anything but bare lifetimes (`'a, 'b`).
fn parse_lifetimes(name: &str, tokens: &mut impl Iterator<Item = TokenTree>) -> TokenStream {
    let mut params = Vec::new();
    for token in tokens.by_ref() {
        let after_quote = matches!(params.last(), Some(TokenTree::Punct(p)) if p.as_char() == '\'');
        match &token {
            TokenTree::Punct(p) if p.as_char() == '>' => return params.into_iter().collect(),
            TokenTree::Punct(p) if p.as_char() == '\'' || p.as_char() == ',' => {}
            TokenTree::Ident(_) if after_quote => {}
            _ => panic!("the offline serde derive supports only lifetime parameters on `{name}`"),
        }
        params.push(token);
    }
    panic!("unclosed generic parameters on `{name}`")
}

fn skip_attributes_and_visibility(tokens: &mut core::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                tokens.next();
            }
            Some(TokenTree::Ident(ident)) if ident.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(group)) = tokens.peek() {
                    if group.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` named-field lists, returning field names in
/// declaration order. Commas inside `<...>` or any bracketed group do not
/// terminate a field.
fn parse_fields(body: TokenStream) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        let ty = take_type(&mut tokens);
        fields.push(FieldDef { name, ty });
    }
    fields
}

/// Takes one type expression, stopping after the separating comma (or at
/// the end of the stream).
fn take_type(tokens: &mut core::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    let mut angle_depth = 0i32;
    let mut ty = Vec::new();
    for token in tokens.by_ref() {
        match &token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
            _ => {}
        }
        ty.push(token);
    }
    ty.into_iter().collect::<TokenStream>().to_string()
}

fn parse_variants(body: TokenStream) -> Vec<VariantDef> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                let inner = group.stream();
                tokens.next();
                VariantShape::Struct(parse_fields(inner))
            }
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
                let count = count_tuple_fields(group.stream());
                tokens.next();
                VariantShape::Tuple(count)
            }
            _ => VariantShape::Unit,
        };
        // Consume the separating comma, if any.
        if let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() == ',' {
                tokens.next();
            }
        }
        variants.push(VariantDef { name, shape });
    }
    variants
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut angle_depth = 0i32;
    let mut commas = 0usize;
    let mut any_token = false;
    let mut trailing_comma = false;
    for token in body {
        any_token = true;
        trailing_comma = false;
        match token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if !any_token {
        0
    } else if trailing_comma {
        commas
    } else {
        commas + 1
    }
}

// ---------------------------------------------------------------------------
// Code generation: the `Value` tree
// ---------------------------------------------------------------------------

fn serialize_struct(fields: &[FieldDef]) -> String {
    let mut pushes = String::new();
    for field in fields {
        pushes.push_str(&format!(
            "__entries.push((::std::string::String::from(\"{0}\"), \
             ::serde::Serialize::to_value(&self.{0})));\n",
            field.name
        ));
    }
    format!(
        "let mut __entries: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::new();\n\
         {pushes}\
         ::serde::Value::Map(__entries)\n"
    )
}

fn deserialize_struct(name: &str, fields: &[FieldDef]) -> String {
    let mut inits = String::new();
    for field in fields {
        inits.push_str(&field.read_from_entries("__entries"));
    }
    format!(
        "let __entries = __value.as_map().ok_or_else(|| \
         ::serde::DeError::expected(\"map\", \"{name}\"))?;\n\
         ::core::result::Result::Ok({name} {{\n{inits}}})\n"
    )
}

fn serialize_enum(name: &str, variants: &[VariantDef]) -> String {
    let mut arms = String::new();
    for variant in variants {
        let v = &variant.name;
        match &variant.shape {
            VariantShape::Unit => {
                arms.push_str(&format!(
                    "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),\n"
                ));
            }
            VariantShape::Tuple(1) => {
                arms.push_str(&format!(
                    "{name}::{v}(__f0) => {{\n\
                     let mut __outer: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                     __outer.push((::std::string::String::from(\"{v}\"), \
                     ::serde::Serialize::to_value(__f0)));\n\
                     ::serde::Value::Map(__outer)\n}}\n"
                ));
            }
            VariantShape::Tuple(count) => {
                let binders: Vec<String> = (0..*count).map(|i| format!("__f{i}")).collect();
                let mut pushes = String::new();
                for binder in &binders {
                    pushes.push_str(&format!(
                        "__items.push(::serde::Serialize::to_value({binder}));\n"
                    ));
                }
                arms.push_str(&format!(
                    "{name}::{v}({binder_list}) => {{\n\
                     let mut __items: ::std::vec::Vec<::serde::Value> = ::std::vec::Vec::new();\n\
                     {pushes}\
                     let mut __outer: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                     __outer.push((::std::string::String::from(\"{v}\"), \
                     ::serde::Value::Seq(__items)));\n\
                     ::serde::Value::Map(__outer)\n}}\n",
                    binder_list = binders.join(", "),
                ));
            }
            VariantShape::Struct(fields) => {
                let binder_list: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let mut pushes = String::new();
                for field in fields {
                    pushes.push_str(&format!(
                        "__fields.push((::std::string::String::from(\"{0}\"), \
                         ::serde::Serialize::to_value({0})));\n",
                        field.name
                    ));
                }
                arms.push_str(&format!(
                    "{name}::{v} {{ {binders} }} => {{\n\
                     let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                     {pushes}\
                     let mut __outer: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                     __outer.push((::std::string::String::from(\"{v}\"), \
                     ::serde::Value::Map(__fields)));\n\
                     ::serde::Value::Map(__outer)\n}}\n",
                    binders = binder_list.join(", "),
                ));
            }
        }
    }
    format!("match self {{\n{arms}}}\n")
}

fn deserialize_enum(name: &str, variants: &[VariantDef]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for variant in variants {
        let v = &variant.name;
        match &variant.shape {
            VariantShape::Unit => {
                unit_arms.push_str(&format!(
                    "\"{v}\" => return ::core::result::Result::Ok({name}::{v}),\n"
                ));
            }
            VariantShape::Tuple(1) => {
                tagged_arms.push_str(&format!(
                    "\"{v}\" => ::core::result::Result::Ok({name}::{v}(\
                     ::serde::Deserialize::from_value(__inner)?)),\n"
                ));
            }
            VariantShape::Tuple(count) => {
                let mut items = String::new();
                for i in 0..*count {
                    items.push_str(&format!("::serde::Deserialize::from_value(&__items[{i}])?,\n"));
                }
                tagged_arms.push_str(&format!(
                    "\"{v}\" => {{\n\
                     let __items = __inner.as_seq().ok_or_else(|| \
                     ::serde::DeError::expected(\"array\", \"{name}::{v}\"))?;\n\
                     if __items.len() != {count} {{\n\
                     return ::core::result::Result::Err(::serde::DeError::new(\
                     \"wrong tuple arity for {name}::{v}\"));\n}}\n\
                     ::core::result::Result::Ok({name}::{v}({items}))\n}}\n"
                ));
            }
            VariantShape::Struct(fields) => {
                let mut inits = String::new();
                for field in fields {
                    inits.push_str(&field.read_from_entries("__fields"));
                }
                tagged_arms.push_str(&format!(
                    "\"{v}\" => {{\n\
                     let __fields = __inner.as_map().ok_or_else(|| \
                     ::serde::DeError::expected(\"map\", \"{name}::{v}\"))?;\n\
                     ::core::result::Result::Ok({name}::{v} {{\n{inits}}})\n}}\n"
                ));
            }
        }
    }
    format!(
        "if let ::core::option::Option::Some(__name) = __value.as_str() {{\n\
         match __name {{\n\
         {unit_arms}\
         __other => return ::core::result::Result::Err(::serde::DeError::new(\
         ::std::format!(\"unknown unit variant `{{__other}}` for {name}\"))),\n\
         }}\n}}\n\
         let __entries = __value.as_map().ok_or_else(|| \
         ::serde::DeError::expected(\"string or single-key map\", \"{name}\"))?;\n\
         if __entries.len() != 1 {{\n\
         return ::core::result::Result::Err(::serde::DeError::expected(\
         \"single-key map\", \"{name}\"));\n}}\n\
         let (__key, __inner) = &__entries[0];\n\
         match __key.as_str() {{\n\
         {tagged_arms}\
         __other => ::core::result::Result::Err(::serde::DeError::new(\
         ::std::format!(\"unknown variant `{{__other}}` for {name}\"))),\n\
         }}\n"
    )
}

// ---------------------------------------------------------------------------
// Code generation: direct `serde::binary` bytes
// ---------------------------------------------------------------------------

/// Writes `fields` (bound to the expressions `access(name)`) as a map.
fn write_fields(fields: &[FieldDef], access: impl Fn(&str) -> String) -> String {
    let mut code = format!("::serde::binary::write_map_header(__out, {});\n", fields.len());
    for field in fields {
        code.push_str(&format!(
            "::serde::binary::write_key(__out, \"{0}\");\n\
             ::serde::Serialize::write_binary({1}, __out);\n",
            field.name,
            access(&field.name)
        ));
    }
    code
}

fn write_struct(fields: &[FieldDef]) -> String {
    write_fields(fields, |name| format!("&self.{name}"))
}

fn write_enum(name: &str, variants: &[VariantDef]) -> String {
    let mut arms = String::new();
    for variant in variants {
        let v = &variant.name;
        let tag = format!(
            "::serde::binary::write_map_header(__out, 1);\n\
             ::serde::binary::write_key(__out, \"{v}\");\n"
        );
        match &variant.shape {
            VariantShape::Unit => {
                arms.push_str(&format!(
                    "{name}::{v} => ::serde::binary::write_str(__out, \"{v}\"),\n"
                ));
            }
            VariantShape::Tuple(1) => {
                arms.push_str(&format!(
                    "{name}::{v}(__f0) => {{\n{tag}\
                     ::serde::Serialize::write_binary(__f0, __out);\n}}\n"
                ));
            }
            VariantShape::Tuple(count) => {
                let binders: Vec<String> = (0..*count).map(|i| format!("__f{i}")).collect();
                let mut writes = String::new();
                for binder in &binders {
                    writes.push_str(&format!("::serde::Serialize::write_binary({binder}, __out);\n"));
                }
                arms.push_str(&format!(
                    "{name}::{v}({binder_list}) => {{\n{tag}\
                     ::serde::binary::write_seq_header(__out, {count});\n{writes}}}\n",
                    binder_list = binders.join(", "),
                ));
            }
            VariantShape::Struct(fields) => {
                let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                arms.push_str(&format!(
                    "{name}::{v} {{ {binders} }} => {{\n{tag}{writes}}}\n",
                    binders = binders.join(", "),
                    writes = write_fields(fields, str::to_string),
                ));
            }
        }
    }
    format!("match self {{\n{arms}}}\n")
}

/// Reads a map at nesting `depth` into `ctor {{ fields }}`, with the
/// `map_get` semantics `serde::binary::read_map` implements: any order,
/// first duplicate wins, unknown keys skipped, missing fields refused.
fn read_fields(ctor: &str, fields: &[FieldDef], depth: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for field in fields {
        let (f, ty) = (&field.name, &field.ty);
        slots.push_str(&format!(
            "let mut __slot_{f}: ::core::option::Option<{ty}> = ::core::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "\"{f}\" if __slot_{f}.is_none() => __slot_{f} = ::core::option::Option::Some(\
             ::serde::Deserialize::read_binary(__reader, {depth} + 1)?),\n"
        ));
        inits.push_str(&if field.optional() {
            format!("{f}: __slot_{f}.unwrap_or_default(),\n")
        } else {
            format!("{f}: ::serde::binary::required(__slot_{f}, \"{f}\")?,\n")
        });
    }
    let visit = if fields.is_empty() {
        "|_, _| ::core::result::Result::Ok(false)".to_string()
    } else {
        format!(
            "|__reader, __key| {{\n\
             match __key {{\n{arms}\
             _ => return ::core::result::Result::Ok(false),\n}}\n\
             ::core::result::Result::Ok(true)\n}}"
        )
    };
    format!(
        "{slots}\
         ::serde::binary::read_map(__reader, {depth}, \"{ctor}\", {visit})?;\n\
         ::core::result::Result::Ok({ctor} {{\n{inits}}})\n"
    )
}

fn read_enum(name: &str, variants: &[VariantDef]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for variant in variants {
        let v = &variant.name;
        match &variant.shape {
            VariantShape::Unit => {
                unit_arms.push_str(&format!("\"{v}\" => ::core::result::Result::Ok({name}::{v}),\n"));
            }
            VariantShape::Tuple(1) => {
                tagged_arms.push_str(&format!(
                    "\"{v}\" => ::core::result::Result::Ok({name}::{v}(\
                     ::serde::Deserialize::read_binary(__reader, __depth + 1)?)),\n"
                ));
            }
            VariantShape::Tuple(count) => {
                let items =
                    "::serde::Deserialize::read_binary(__reader, __depth + 2)?,\n".repeat(*count);
                tagged_arms.push_str(&format!(
                    "\"{v}\" => {{\n\
                     if !__reader.accept(__depth + 1, ::serde::binary::TAG_SEQ)? {{\n\
                     return ::core::result::Result::Err(::serde::DeError::expected(\
                     \"array\", \"{name}::{v}\"));\n}}\n\
                     if __reader.take_len()? != {count} {{\n\
                     return ::core::result::Result::Err(::serde::DeError::new(\
                     \"wrong tuple arity for {name}::{v}\"));\n}}\n\
                     ::core::result::Result::Ok({name}::{v}({items}))\n}}\n"
                ));
            }
            VariantShape::Struct(fields) => {
                tagged_arms.push_str(&format!(
                    "\"{v}\" => {{\n{}}}\n",
                    read_fields(&format!("{name}::{v}"), fields, "(__depth + 1)")
                ));
            }
        }
    }
    format!(
        "::serde::binary::read_enum(__reader, __depth, \"{name}\", \
         |__name| match __name {{\n\
         {unit_arms}\
         __other => ::core::result::Result::Err(::serde::DeError::new(\
         ::std::format!(\"unknown unit variant `{{__other}}` for {name}\"))),\n\
         }}, \
         |__reader, __key| match __key {{\n\
         {tagged_arms}\
         __other => ::core::result::Result::Err(::serde::DeError::new(\
         ::std::format!(\"unknown variant `{{__other}}` for {name}\"))),\n\
         }})\n"
    )
}
