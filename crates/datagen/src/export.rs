//! JSONL export/import of generated datasets.
//!
//! The paper cannot redistribute its Yelp-derived dataset and instead
//! documents construction steps; this module is the synthetic analogue —
//! dump a generated city to Yelp-style JSONL (one business object per
//! line, like `yelp_academic_dataset_business.json`) and load it back.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use geotext::{AttributeValue, Dataset, GeoPoint, GeoTextObject};
use serde_json::Value;

/// Errors from dataset export/import.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExportError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line was not a valid JSON object or lacked required fields.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        cause: String,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "io error: {e}"),
            ExportError::BadRecord { line, cause } => {
                write!(f, "bad record at line {line}: {cause}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

/// Writes a dataset as JSONL: one JSON object per POI, with `latitude`
/// and `longitude` fields plus every attribute.
pub fn write_jsonl(dataset: &Dataset, path: &Path) -> Result<(), ExportError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut line = String::new();
    for obj in dataset.iter() {
        line.clear();
        obj.write_json(&mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

fn value_to_attr(v: &Value) -> Option<AttributeValue> {
    match v {
        Value::String(s) => Some(AttributeValue::Text(s.clone())),
        Value::Bool(b) => Some(AttributeValue::Bool(*b)),
        Value::Number(n) => {
            if let Some(i) = n.as_i64() {
                Some(AttributeValue::Integer(i))
            } else {
                n.as_f64().map(AttributeValue::Number)
            }
        }
        Value::Array(a) => {
            let items: Option<Vec<String>> =
                a.iter().map(|x| x.as_str().map(str::to_owned)).collect();
            items.map(AttributeValue::List)
        }
        Value::Object(o) => {
            let map: Option<BTreeMap<String, String>> = o
                .iter()
                .map(|(k, x)| x.as_str().map(|s| (k.clone(), s.to_owned())))
                .collect();
            map.map(AttributeValue::Map)
        }
        Value::Null => None,
    }
}

/// Reads a JSONL dataset written by [`write_jsonl`] (or hand-built in
/// the same Yelp-like schema).
pub fn read_jsonl(name: &str, path: &Path) -> Result<Dataset, ExportError> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut dataset = Dataset::new(name);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(&line).map_err(|e| ExportError::BadRecord {
            line: i + 1,
            cause: e.to_string(),
        })?;
        let obj = v.as_object().ok_or_else(|| ExportError::BadRecord {
            line: i + 1,
            cause: "not a JSON object".to_owned(),
        })?;
        let lat =
            obj.get("latitude")
                .and_then(Value::as_f64)
                .ok_or_else(|| ExportError::BadRecord {
                    line: i + 1,
                    cause: "missing latitude".to_owned(),
                })?;
        let lon = obj
            .get("longitude")
            .and_then(Value::as_f64)
            .ok_or_else(|| ExportError::BadRecord {
                line: i + 1,
                cause: "missing longitude".to_owned(),
            })?;
        let location = GeoPoint::new(lat, lon).map_err(|e| ExportError::BadRecord {
            line: i + 1,
            cause: e.to_string(),
        })?;
        dataset.push(|id| {
            let mut b = GeoTextObject::builder(id, location);
            for (k, v) in obj {
                if k == "latitude" || k == "longitude" {
                    continue;
                }
                if let Some(attr) = value_to_attr(v) {
                    b = b.attr(k.clone(), attr);
                }
            }
            b.build().expect("record has textual attributes")
        });
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CITIES;
    use crate::poi::generate_city;

    #[test]
    fn jsonl_roundtrip_preserves_records() {
        let data = generate_city(&CITIES[3], 40, 77);
        let dir = std::env::temp_dir().join("datagen_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("city.jsonl");
        write_jsonl(&data.dataset, &path).unwrap();
        let back = read_jsonl("roundtrip", &path).unwrap();
        assert_eq!(back.len(), data.dataset.len());
        for (a, b) in data.dataset.iter().zip(back.iter()) {
            assert_eq!(a.name(), b.name());
            assert!((a.location.lat - b.location.lat).abs() < 1e-12);
            assert_eq!(
                a.attrs.get("categories").map(|v| v.flatten()),
                b.attrs.get("categories").map(|v| v.flatten())
            );
            assert_eq!(
                a.attrs.get("tips").map(|v| v.flatten()),
                b.attrs.get("tips").map(|v| v.flatten())
            );
            assert_eq!(
                a.attrs.get("stars").and_then(|v| v.as_f64()),
                b.attrs.get("stars").and_then(|v| v.as_f64())
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_garbage() {
        let dir = std::env::temp_dir().join("datagen_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(read_jsonl("bad", &path).is_err());
        std::fs::write(&path, "{\"name\": \"x\"}\n").unwrap();
        assert!(read_jsonl("bad", &path).is_err()); // missing coordinates
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_lines_skipped() {
        let dir = std::env::temp_dir().join("datagen_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sparse.jsonl");
        std::fs::write(
            &path,
            "\n{\"latitude\": 1.0, \"longitude\": 2.0, \"name\": \"a\"}\n\n",
        )
        .unwrap();
        let d = read_jsonl("sparse", &path).unwrap();
        assert_eq!(d.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
