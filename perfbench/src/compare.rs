//! `--compare A B`: every per-layer metric of two traced runs side by
//! side, with the delta and each run's own spread.

use serde::Content;

/// One metric row of a traced-run file.
struct Row {
    name: String,
    value: f64,
    unit: String,
    spread: f64,
}

/// Reads the `metrics` object of a file `Tracer::write` produced.
fn read(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde::json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let Some(Content::Map(metrics)) = doc.get("metrics") else {
        return Err(format!("{path}: no metrics object"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let number = |key: &str| {
                m.get(key)
                    .and_then(Content::as_f64)
                    .ok_or_else(|| format!("{path}: {name} lacks a numeric {key}"))
            };
            let unit = match m.get("unit") {
                Some(Content::Str(u)) => u.clone(),
                _ => return Err(format!("{path}: {name} lacks a unit")),
            };
            Ok(Row {
                name: name.clone(),
                value: number("value")?,
                unit,
                spread: number("spread")?,
            })
        })
        .collect()
}

/// Prints the side-by-side table.
pub fn print(a: &str, b: &str) -> Result<(), String> {
    let (ra, rb) = (read(a)?, read(b)?);
    println!("A = {a}\nB = {b}");
    println!(
        "{:<38} {:>14} {:>8} {:>14} {:>8} {:>9}  unit",
        "metric", "A", "A iqr", "B", "B iqr", "B/A-1"
    );
    for row in &ra {
        let Some(other) = rb.iter().find(|r| r.name == row.name) else {
            println!("{:<38} {:>14.6e}   (missing in B)", row.name, row.value);
            continue;
        };
        let delta = if row.value == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (other.value / row.value - 1.0) * 100.0)
        };
        println!(
            "{:<38} {:>14.6e} {:>7.1}% {:>14.6e} {:>7.1}% {:>9}  {}",
            row.name,
            row.value,
            row.spread * 100.0,
            other.value,
            other.spread * 100.0,
            delta,
            row.unit
        );
    }
    for row in rb.iter().filter(|r| !ra.iter().any(|o| o.name == r.name)) {
        println!("{:<38} (missing in A)   {:>14.6e}", row.name, row.value);
    }
    Ok(())
}
