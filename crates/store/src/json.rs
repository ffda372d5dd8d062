//! A hand-rolled JSON writer.
//!
//! The workspace builds offline against a no-op `serde` stub (see
//! `vendor/README.md`), so machine-readable output is emitted by this
//! small, dependency-free writer instead of derived serialization.
//! `swap_bench::json` re-exports it next to its report-shaped encoders.
//!
//! The writer covers exactly what the perf trajectory needs: objects,
//! arrays, numbers, booleans, and escaped strings.

use std::fmt::Write as _;

/// Builds one JSON object; create with [`object`], add fields in insertion
/// order, and take the rendered text from the closure's return.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

/// Builds one JSON array; see [`JsonObject::field_array`].
#[derive(Debug)]
pub struct JsonArray {
    buf: String,
    first: bool,
}

/// Renders `{...}` with the fields `f` adds.
pub fn object(f: impl FnOnce(&mut JsonObject)) -> String {
    let mut obj = JsonObject { buf: String::from("{"), first: true };
    f(&mut obj);
    obj.buf.push('}');
    obj.buf
}

fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a `usize` field.
    pub fn field_usize(&mut self, key: &str, v: usize) -> &mut Self {
        self.field_u64(key, v as u64)
    }

    /// Adds a finite float field (rendered with up to 3 decimals; non-finite
    /// values become `null`, which JSON requires).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.3}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an escaped string field.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        escape_into(&mut self.buf, v);
        self
    }

    /// Adds a nested object field.
    pub fn field_object(&mut self, key: &str, f: impl FnOnce(&mut JsonObject)) -> &mut Self {
        self.key(key);
        self.buf.push_str(&object(f));
        self
    }

    /// Adds an array field.
    pub fn field_array(&mut self, key: &str, f: impl FnOnce(&mut JsonArray)) -> &mut Self {
        self.key(key);
        let mut arr = JsonArray { buf: String::from("["), first: true };
        f(&mut arr);
        arr.buf.push(']');
        self.buf.push_str(&arr.buf);
        self
    }
}

impl JsonArray {
    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    /// Appends an object element.
    pub fn push_object(&mut self, f: impl FnOnce(&mut JsonObject)) -> &mut Self {
        self.sep();
        self.buf.push_str(&object(f));
        self
    }

    /// Appends an unsigned integer element.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Appends an escaped string element.
    pub fn push_str(&mut self, v: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, v);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_escaping() {
        let s = object(|o| {
            o.field_u64("n", 3)
                .field_bool("ok", true)
                .field_f64("rate", 1.5)
                .field_f64("bad", f64::NAN)
                .field_str("name", "a\"b\\c\nd\u{1}")
                .field_object("inner", |i| {
                    i.field_usize("k", 7);
                })
                .field_array("xs", |a| {
                    a.push_u64(1).push_str("two").push_object(|o| {
                        o.field_u64("three", 3);
                    });
                });
        });
        assert_eq!(
            s,
            "{\"n\":3,\"ok\":true,\"rate\":1.500,\"bad\":null,\
             \"name\":\"a\\\"b\\\\c\\nd\\u0001\",\"inner\":{\"k\":7},\
             \"xs\":[1,\"two\",{\"three\":3}]}"
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(object(|_| {}), "{}");
        assert_eq!(
            object(|o| {
                o.field_array("xs", |_| {});
            }),
            "{\"xs\":[]}"
        );
    }
}
