//! Committed artifacts must match the code that emits them: every
//! `BENCH_*.json` at the repository root parses as JSON, and its `"schema"`
//! is the constant the emitter writes today. A schema bump that forgets to
//! regenerate its file fails here instead of leaving a stale record behind.

use std::path::Path;

use hybrid_bench::json;

/// The emitted schema of every committed record, by file name.
const ARTIFACTS: [(&str, &str); 6] = [
    ("BENCH_apsp.json", json::SCHEMA),
    ("BENCH_scenarios.json", json::SCHEMA_SCENARIOS),
    ("BENCH_throughput.json", json::SCHEMA_THROUGHPUT),
    ("BENCH_chaos.json", json::SCHEMA_CHAOS),
    ("BENCH_churn.json", json::SCHEMA_CHURN),
    ("BENCH_serving.json", json::SCHEMA_SERVING),
];

/// Just enough of a JSON value to check the document shape.
#[derive(Debug)]
enum Value {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A strict recursive-descent JSON parser over the document's bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse_document(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool),
            Some(b'f') => self.literal("false", Value::Bool),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                    match esc {
                        b'u' => {
                            let hex =
                                self.bytes.get(self.pos + 2..self.pos + 6).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let c = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let c = char::from_u32(c).ok_or("bad \\u code point")?;
                            out.extend_from_slice(c.to_string().as_bytes());
                            self.pos += 6;
                            continue;
                        }
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 2;
                }
                Some(&b) if b < 0x20 => return Err(format!("raw control byte at {}", self.pos)),
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(|_| Value::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn every_committed_bench_record_parses_with_the_emitted_schema() {
    for (file, schema) in ARTIFACTS {
        let path = repo_root().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file} must be committed at the repo root: {e}"));
        let doc = Parser::parse_document(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        match doc.get("schema") {
            Some(Value::Str(s)) => assert_eq!(s, schema, "{file} is stale: regenerate it"),
            other => panic!("{file}: \"schema\" must be a string, got {other:?}"),
        }
        match doc.get("records") {
            Some(Value::Arr(records)) => {
                assert!(!records.is_empty(), "{file}: no records");
                for r in records {
                    assert!(
                        matches!(r.get("bench"), Some(Value::Str(_))),
                        "{file}: every record names its bench: {r:?}"
                    );
                }
            }
            other => panic!("{file}: \"records\" must be an array, got {other:?}"),
        }
    }
}

#[test]
fn every_bench_file_at_the_root_is_checked() {
    let mut found: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    found.sort();
    let mut known: Vec<String> = ARTIFACTS.iter().map(|(f, _)| f.to_string()).collect();
    known.sort();
    assert_eq!(found, known, "a committed BENCH_*.json without a schema check");
}

#[test]
fn chaos_record_covers_every_chaos_scenario_in_registry_order() {
    // `BENCH_chaos.json` holds one record per `chaos`-tagged registry
    // scenario; a scenario added to the tag without regenerating the file
    // fails here.
    let text = std::fs::read_to_string(repo_root().join("BENCH_chaos.json"))
        .expect("BENCH_chaos.json is committed");
    let doc = Parser::parse_document(&text).expect("BENCH_chaos.json parses");
    let Some(Value::Arr(records)) = doc.get("records") else {
        panic!("BENCH_chaos.json: \"records\" must be an array");
    };
    let recorded: Vec<&str> = records
        .iter()
        .map(|r| match r.get("scenario") {
            Some(Value::Str(name)) => name.as_str(),
            other => panic!("chaos record without a scenario name: {other:?}"),
        })
        .collect();
    let registered: Vec<&str> =
        hybrid_scenarios::by_tag("chaos").iter().map(|sc| sc.name).collect();
    assert_eq!(recorded, registered, "BENCH_chaos.json is stale: regenerate it");
}

#[test]
fn the_parser_rejects_malformed_documents() {
    for bad in ["{", "{\"a\": 1,}", "[1 2]", "{\"a\": tru}", "{} x", "\"\\q\""] {
        assert!(Parser::parse_document(bad).is_err(), "{bad:?} must not parse");
    }
    let ok = Parser::parse_document("{\"a\": [1, -2.5e3, true, null, \"\\u00e9\"]}").unwrap();
    assert!(matches!(ok.get("a"), Some(Value::Arr(items)) if items.len() == 5));
}
