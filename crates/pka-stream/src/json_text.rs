//! The crate's compact JSON writer: text appended straight into one
//! buffer, byte-identical to the compact rendering of the equivalent
//! [`serde_json::Value`] tree. [`Checkpoint::to_json`](crate::Checkpoint::to_json)
//! and [`SourceRecord::to_jsonl`](crate::SourceRecord::to_jsonl) write
//! through it; callers emit object keys in sorted byte order themselves,
//! the order a `BTreeMap`-backed `Value` renders.

use std::fmt::Write;

/// `"00" "01" … "99"`: the two-digit table [`JsonText::u64`] writes from.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Compact JSON text under construction. Bytes go into a `Vec<u8>` and
/// are checked as UTF-8 once, at [`finish`](Self::finish); every write
/// appends ASCII or a `&str`.
pub(crate) struct JsonText(Vec<u8>);

impl JsonText {
    /// An empty text with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self(Vec::with_capacity(capacity))
    }

    /// Appends literal JSON syntax (punctuation and quoted keys).
    pub(crate) fn raw(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    /// Appends `n` in decimal, two digits per division.
    pub(crate) fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + n as u8;
        }
        self.0.extend_from_slice(&buf[at..]);
    }

    /// Appends `x`'s IEEE-754 bit pattern as a decimal integer.
    pub(crate) fn bits(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends `x` as the `Value` renderer writes a float: Rust's shortest
    /// round-trip `{:?}` form (`1.0`, `-0.0`, `1e-7`), or `null` when `x`
    /// is not finite, since JSON has no NaN or infinity.
    pub(crate) fn f64(&mut self, x: f64) {
        if x.is_finite() {
            // Appending to a `Vec` cannot fail.
            let _ = write!(self, "{x:?}");
        } else {
            self.raw("null");
        }
    }

    /// Appends `s` as a quoted, escaped JSON string.
    pub(crate) fn string(&mut self, s: &str) {
        // Appending to a `Vec` cannot fail.
        let _ = serde_json::write_escaped(s, self);
    }

    /// Appends `[e0,e1,…]`, each element written by `each`.
    pub(crate) fn array<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.0.push(b'[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            each(self, item);
        }
        self.0.push(b']');
    }

    pub(crate) fn finish(self) -> String {
        String::from_utf8(self.0).expect("JSON text is built from ASCII and `&str`s")
    }
}

impl Write for JsonText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.raw(s);
        Ok(())
    }
}
