//! Lexer edge cases: every banned construct below appears only inside
//! comments, strings, raw strings, byte strings, or char literals, so
//! the gate must report nothing.

/* Block comment mentioning HashMap::new() and Instant::now()
   /* with a nested block comment calling x.partial_cmp(y).unwrap() */
   still inside the outer comment: panic!("no") */

// Line comment: foo.unwrap(); unsafe { }; SystemTime::now()

pub fn raw_strings() -> Vec<&'static str> {
    vec![
        r"plain raw: x.unwrap()",
        r#"one guard: HashMap<"k", "v"> and Instant::now()"#,
        r##"two guards: "# not a terminator" partial_cmp"##,
    ]
}

pub fn strings_and_bytes() -> (&'static [u8], &'static [u8], &'static str) {
    (
        b"byte string: y.expect(\"no\") unsafe",
        br#"raw bytes: "HashSet::new()" // not a comment"#,
        "escaped quote \" then unwrap() and \\",
    )
}

pub fn char_literals() -> (char, char, char, char, u8) {
    // '"' must not open a string; '/' must not open a comment; '\'' is
    // an escaped quote; lifetimes ('a) must not eat the code after them.
    let quote = '"';
    let slash = '/';
    let escaped = '\'';
    let unicode = '\u{1F600}';
    let byte = b'x';
    (quote, slash, escaped, unicode, byte)
}

pub fn lifetimes<'a>(x: &'a str, _other: &str) -> &'a str {
    let _one_char_lifetime: &'_ str = x;
    x
}
