//! Report tables: aligned console output plus CSV and JSON files under
//! `target/rasengan-reports/`.

use rasengan_obs::json::Json;
use std::fs;
use std::path::PathBuf;

/// A simple fixed-width report table.
///
/// # Example
///
/// ```
/// use rasengan_bench::Table;
///
/// let mut t = Table::new("demo", vec!["bench", "ARG"]);
/// t.row(vec!["F1".into(), format!("{:.2}", 0.01)]);
/// let rendered = t.render();
/// assert!(rendered.contains("F1"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<&str>) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("## {}\n", self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// The table as machine-readable JSON (`{"title", "headers",
    /// "rows"}`). Cells stay strings — the JSON mirrors the CSV, it does
    /// not guess column types.
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| Json::Arr(cells.iter().cloned().map(Json::Str).collect());
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("headers", strings(&self.headers)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|row| strings(row)).collect()),
            ),
        ])
        .render()
    }

    /// Writes [`Table::to_csv`] to `target/rasengan-reports/<name>.csv`
    /// and returns the path.
    pub fn save_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        save(&format!("{name}.csv"), &self.to_csv())
    }

    /// Writes [`Table::to_json`] to `target/rasengan-reports/<name>.json`
    /// and returns the path.
    pub fn save_json(&self, name: &str) -> std::io::Result<PathBuf> {
        save(&format!("{name}.json"), &self.to_json())
    }
}

/// Writes `text` to `target/rasengan-reports/<file>` and returns the
/// path.
fn save(file: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/rasengan-reports");
    fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    fs::write(&path, text)?;
    Ok(path)
}

/// Formats a float compactly for report cells.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "inf".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let r = t.render();
        assert!(r.contains("long-header"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        Table::new("t", vec!["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(2.7777), "2.78");
        assert_eq!(fmt(1234.0), "1234");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }

    #[test]
    fn csv_text() {
        let mut t = Table::new("t", vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn json_text() {
        let mut t = Table::new("t", vec!["a", "b"]);
        t.row(vec!["1".into(), "2.5".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"t\",\"headers\":[\"a\",\"b\"],\"rows\":[[\"1\",\"2.5\"]]}"
        );
    }
}
