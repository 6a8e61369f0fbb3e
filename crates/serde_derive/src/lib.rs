//! Vendored minimal `serde_derive` substitute for offline builds.
//!
//! Supports exactly the type shapes used in this workspace:
//!
//! * structs with named fields,
//! * enums whose variants are all unit variants,
//! * single-field tuple ("newtype") structs.
//!
//! Generated impls target the vendored `serde` facade in this workspace
//! (`Serialize::to_json_value` / `Deserialize::from_json_value` over
//! `serde::value::Value`), not the real serde data model. Generics and
//! `#[serde(...)]` attributes are deliberately unsupported; deriving on
//! such a type produces a `compile_error!` naming the limitation.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of the deriving type, as far as codegen needs to know.
enum Shape {
    NamedStruct { name: String, fields: Vec<String> },
    UnitEnum { name: String, variants: Vec<String> },
    NewtypeStruct { name: String },
}

/// Derives the vendored `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_serialize(&shape),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives the vendored `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_deserialize(&shape),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let mut iter = input.into_iter().peekable();

    // Skip outer attributes (including doc comments) and visibility.
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // pub(crate) / pub(super)
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    if kind != "struct" && kind != "enum" {
        return Err(format!("derive supports only structs and enums, found `{kind}`"));
    }
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    if matches!(&iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "vendored serde derive does not support generic type `{name}`"
        ));
    }

    match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Ok(Shape::NamedStruct {
                    fields: parse_named_fields(g.stream())?,
                    name,
                })
            } else {
                Ok(Shape::UnitEnum {
                    variants: parse_unit_variants(g.stream())?,
                    name,
                })
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && kind == "struct" => {
            let n = count_tuple_fields(g.stream());
            if n == 1 {
                Ok(Shape::NewtypeStruct { name })
            } else {
                Err(format!(
                    "vendored serde derive supports tuple structs with exactly one field; `{name}` has {n}"
                ))
            }
        }
        other => Err(format!(
            "unsupported definition body for `{name}`: {other:?}"
        )),
    }
}

/// Field names of a `struct { ... }` body, skipping attributes, visibility
/// and type tokens (commas inside `<...>` do not split fields).
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        // Skip attributes/doc comments and visibility.
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    iter.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    iter.next();
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let field = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after `{field}`, found {other:?}")),
        }
        // Skip the type, tracking angle-bracket depth so `Vec<T>` and
        // `Map<K, V>` don't end the field early.
        let mut angle_depth = 0i32;
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
        }
        fields.push(field);
    }
    if fields.is_empty() {
        return Err("vendored serde derive requires at least one named field".into());
    }
    Ok(fields)
}

/// Variant names of an `enum { ... }` body; every variant must be a unit
/// variant (no payload, no discriminant).
fn parse_unit_variants(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            iter.next();
        }
        let variant = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        match iter.next() {
            None => {
                variants.push(variant);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push(variant),
            other => {
                return Err(format!(
                    "vendored serde derive supports only unit enum variants; `{variant}` is followed by {other:?}"
                ))
            }
        }
    }
    if variants.is_empty() {
        return Err("vendored serde derive requires at least one enum variant".into());
    }
    Ok(variants)
}

/// Number of top-level comma-separated fields in a tuple-struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut fields = 0usize;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for tt in stream {
        saw_tokens = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => fields += 1,
                _ => {}
            }
        }
    }
    if saw_tokens {
        fields + 1
    } else {
        0
    }
}

fn gen_serialize(shape: &Shape) -> TokenStream {
    let code = match shape {
        Shape::NamedStruct { name, fields } => {
            let mut body = String::new();
            for f in fields {
                body.push_str(&format!(
                    "map.insert(::std::string::String::from({f:?}), \
                     ::serde::Serialize::to_json_value(&self.{f}));\n"
                ));
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::value::Value {{\n\
                         let mut map = ::serde::value::Map::new();\n\
                         {body}\
                         ::serde::value::Value::Object(map)\n\
                     }}\n\
                 }}"
            )
        }
        Shape::UnitEnum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&format!(
                    "{name}::{v} => ::serde::value::Value::String(::std::string::String::from({v:?})),\n"
                ));
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::value::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
        Shape::NewtypeStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_json_value(&self) -> ::serde::value::Value {{\n\
                     ::serde::Serialize::to_json_value(&self.0)\n\
                 }}\n\
             }}"
        ),
    };
    code.parse().unwrap()
}

fn gen_deserialize(shape: &Shape) -> TokenStream {
    let code = match shape {
        Shape::NamedStruct { name, fields } => {
            let mut body = String::new();
            for f in fields {
                body.push_str(&format!(
                    "{f}: match obj.get({f:?}) {{\
                         ::std::option::Option::Some(v) => \
                             ::serde::Deserialize::from_json_value(v),\
                         ::std::option::Option::None => \
                             ::serde::Deserialize::from_missing({f:?}),\
                     }}\
                     .map_err(|e| e.in_context(concat!({name:?}, \".\", {f:?})))?,\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(value: &::serde::value::Value) \
                         -> ::std::result::Result<Self, ::serde::value::ValueError> {{\n\
                         let obj = value.as_object().ok_or_else(|| \
                             ::serde::value::ValueError::custom(\
                                 concat!(\"expected object for \", {name:?})))?;\n\
                         ::std::result::Result::Ok({name} {{ {body} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::UnitEnum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&format!(
                    "::std::option::Option::Some({v:?}) => ::std::result::Result::Ok({name}::{v}),\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(value: &::serde::value::Value) \
                         -> ::std::result::Result<Self, ::serde::value::ValueError> {{\n\
                         match value.as_str() {{\n\
                             {arms}\
                             _ => ::std::result::Result::Err(\
                                 ::serde::value::ValueError::custom(\
                                     concat!(\"unknown variant for \", {name:?}))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
        Shape::NewtypeStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_json_value(value: &::serde::value::Value) \
                     -> ::std::result::Result<Self, ::serde::value::ValueError> {{\n\
                     ::std::result::Result::Ok({name}(\
                         ::serde::Deserialize::from_json_value(value)?))\n\
                 }}\n\
             }}"
        ),
    };
    code.parse().unwrap()
}
