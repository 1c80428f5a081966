//! `benchmark compare A.json B.json`: for every (end-to-end metric,
//! workload) pair, whether set B is `ok`, `worse` or `unresolved` against
//! set A under the bound the spec fixes. Both files hold one result object
//! per line, as `--json` appends them.

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::HashMap;

/// A parsed JSON value — just enough of JSON to read result lines back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", p.at))
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = *self.s.get(self.at + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => c,
                        _ => return Err(format!("unsupported escape \\{}", c as char)),
                    });
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// `(workload, metric) → values` of the untraced result lines in `text`.
fn collect(text: &str) -> Result<HashMap<(String, String), Vec<f64>>, String> {
    let mut out: HashMap<(String, String), Vec<f64>> = HashMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::num) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// The verdict for one pair of value sets under `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let own_spread = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if own_spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Compares two result files; returns the report and whether any pair is
/// `worse`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (collect(a_text)?, collect(b_text)?);
    let mut out = format!(
        "{:<12} {:<24} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let mut any_worse = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound);
            any_worse |= v == "worse";
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            out.push_str(&format!(
                "{:<12} {:<24} {:>12.4} {:>12.4} {:>8} {:>8} {:>6}  {v}\n",
                w.name,
                m.name,
                median(va),
                median(vb),
                pct(spread(va)),
                pct(spread(vb)),
                format!("{:.0}%", m.bound * 100.0),
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v = Json::parse(
            r#"{"workload": "serve", "correct": true, "metrics": {"setup_s": {"value": 1.5e-2, "unit": "s"}}, "x": [1, null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("workload").and_then(Json::str), Some("serve"));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::num),
            Some(0.015)
        );
        assert_eq!(
            v.get("x"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Null]))
        );
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_sets_own_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(
                &steady,
                &[10.4, 10.5, 10.3, 10.4, 10.45],
                Better::Lower,
                0.10
            ),
            "ok"
        );
        assert_eq!(
            verdict(
                &steady,
                &[12.0, 12.1, 11.9, 12.0, 12.05],
                Better::Lower,
                0.10
            ),
            "worse"
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0, 8.05], Better::Lower, 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0, 8.05], Better::Higher, 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&steady, &[9.0, 14.0, 10.0, 12.0, 16.0], Better::Lower, 0.10),
            "unresolved"
        );
    }

    #[test]
    fn compare_reports_each_pair_once() {
        let line = |w: &str, v: f64| {
            format!("{{\"workload\": \"{w}\", \"metrics\": {{\"ckpt_ms_p50\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n")
        };
        let a: String = [10.0, 10.1, 9.9]
            .iter()
            .map(|&v| line("serve", v))
            .collect();
        let b: String = [13.0, 13.1, 12.9]
            .iter()
            .map(|&v| line("serve", v))
            .collect();
        let (report, worse) = compare(&a, &b).unwrap();
        assert!(worse);
        assert_eq!(report.matches("ckpt_ms_p50").count(), 1);
        assert!(report.contains("worse"));
        assert!(!compare(&a, &a).unwrap().1);
    }
}
