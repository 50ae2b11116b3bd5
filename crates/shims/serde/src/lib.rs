//! Offline stand-in for `serde`.
//!
//! The real serde models a full data model with pluggable formats; this
//! workspace only ever serializes std scalars, strings and containers to
//! JSON through `serde_json::to_string`.  The shim therefore collapses the
//! data model to a single operation — "append your JSON encoding to this
//! string" — which keeps the `serde_json` front-end tiny while leaving call
//! sites source-compatible.  Nothing derives `Serialize`, so there is no
//! derive macro.

#![warn(missing_docs)]

/// A value that can append its JSON encoding to an output buffer.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Appends a JSON string literal with the required escapes.
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_serialize_display {
    ($($t:ty),+) => {
        $(
            impl Serialize for $t {
                fn serialize_json(&self, out: &mut String) {
                    out.push_str(&self.to_string());
                }
            }
        )+
    };
}

impl_serialize_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

macro_rules! impl_serialize_float {
    ($($t:ty),+) => {
        $(
            impl Serialize for $t {
                fn serialize_json(&self, out: &mut String) {
                    if self.is_finite() {
                        out.push_str(&self.to_string());
                    } else {
                        // JSON has no NaN/Infinity; serde_json emits null.
                        out.push_str("null");
                    }
                }
            }
        )+
    };
}

impl_serialize_float!(f32, f64);

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        write_json_str(self, out);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_str(self, out);
    }
}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        write_json_str(&self.to_string(), out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {
        $(
            impl<$($name: Serialize),+> Serialize for ($($name,)+) {
                fn serialize_json(&self, out: &mut String) {
                    out.push('[');
                    let mut first = true;
                    $(
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        self.$idx.serialize_json(out);
                    )+
                    let _ = first;
                    out.push(']');
                }
            }
        )+
    };
}

impl_serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

impl Serialize for std::time::Duration {
    fn serialize_json(&self, out: &mut String) {
        // Matches serde's upstream encoding: {"secs":u64,"nanos":u32}.
        out.push_str("{\"secs\":");
        self.as_secs().serialize_json(out);
        out.push_str(",\"nanos\":");
        self.subsec_nanos().serialize_json(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json<T: Serialize>(v: &T) -> String {
        let mut s = String::new();
        v.serialize_json(&mut s);
        s
    }

    #[test]
    fn scalars_and_strings() {
        assert_eq!(to_json(&42u64), "42");
        assert_eq!(to_json(&-3i32), "-3");
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&1.5f64), "1.5");
        assert_eq!(to_json(&f64::NAN), "null");
        assert_eq!(to_json(&"a\"b\\c\nd".to_string()), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn containers() {
        assert_eq!(to_json(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Some(7u8)), "7");
        assert_eq!(to_json(&Option::<u8>::None), "null");
        assert_eq!(to_json(&(1u8, "x", 2.0f64)), "[1,\"x\",2]");
    }

    #[test]
    fn duration_matches_serde_layout() {
        let d = std::time::Duration::new(3, 500);
        assert_eq!(to_json(&d), "{\"secs\":3,\"nanos\":500}");
    }
}
