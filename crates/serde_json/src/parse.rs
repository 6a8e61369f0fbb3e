//! A small recursive-descent JSON parser for the vendored `serde_json`.

use std::borrow::Cow;

use serde::value::{Map, Number, Value};

use crate::{Error, MAX_DEPTH};

pub(crate) fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser::new(input);
    let value = p.parse_value()?;
    p.finish()?;
    Ok(value)
}

/// Parses `input` as one document. When it is an object, hands each member
/// to `member` in document order instead of building the object, and
/// returns `true`; any other value is parsed whole and dropped. Every
/// syntax error, its offset and the depth limit are those of [`parse`].
pub(crate) fn walk_object<'a>(
    input: &'a str,
    mut member: impl FnMut(Cow<'a, str>, Value),
) -> Result<bool, Error> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let is_object = p.peek() == Some(b'{');
    if is_object {
        p.nested(|p| p.parse_members(&mut member))?;
    } else {
        p.parse_value()?;
    }
    p.finish()?;
    Ok(is_object)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Accepts only whitespace after the document.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON document"))
        }
    }

    fn err(&self, message: &str) -> Error {
        Error::new(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `parse` one array or object level deeper. One native stack
    /// frame per level: past the limit, fail with an error instead of
    /// overflowing the stack.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        let mut map = Map::new();
        self.parse_members(&mut |key: Cow<'a, str>, value| {
            map.insert(key.into_owned(), value);
        })?;
        Ok(Value::Object(map))
    }

    /// Walks one object, handing each member to `member` in order.
    fn parse_members(
        &mut self,
        member: &mut impl FnMut(Cow<'a, str>, Value),
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_key()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            member(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(()),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// An object key, borrowed from the input when it holds no escape or
    /// control character; otherwise [`parse_string`](Self::parse_string)
    /// reads it from the same position, with the same errors.
    fn parse_key(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let end = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map(|len| start + len);
            if let Some(end) = end.filter(|&end| self.bytes[end] == b'"') {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(&self.text[start..end]));
            }
        }
        self.parse_string().map(Cow::Owned)
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy a run of plain ASCII at once; everything else goes
            // through the byte-wise cases below.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || !(0x20..0x80).contains(&b))
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = self.parse_hex4()?;
                        let code = if (0xd800..0xdc00).contains(&first) {
                            // Surrogate pair: expect a trailing \uXXXX.
                            if !(self.eat_literal("\\u")) {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let second = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&second) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences from raw bytes.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    if len == 1 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let end = start + len;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or_else(|| self.err("truncated UTF-8"))?;
                        let s = std::str::from_utf8(chunk)
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number slice is ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .map(|n| Value::Number(Number::Float(n)))
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first_byte: u8) -> Option<usize> {
    match first_byte {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}
