//! Table/CSV emission for experiment rows.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A typed experiment row that knows how to print itself.
pub trait Row {
    /// Column names.
    fn headers() -> Vec<&'static str>;
    /// This row's values, one per header.
    fn fields(&self) -> Vec<String>;
}

/// Renders rows as an aligned text table (what the binary prints).
pub fn render_table<R: Row>(rows: &[R]) -> String {
    let headers = R::headers();
    let mut cells: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    cells.extend(rows.iter().map(|r| r.fields()));
    let cols = headers.len();
    let mut widths = vec![0usize; cols];
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in cells.iter().enumerate() {
        for (i, c) in row.iter().enumerate() {
            let _ = write!(out, "{:>width$}", c, width = widths[i]);
            if i + 1 < cols {
                out.push_str("  ");
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Renders rows as CSV.
pub fn render_csv<R: Row>(rows: &[R]) -> String {
    let mut out = String::new();
    out.push_str(&R::headers().join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.fields().join(","));
        out.push('\n');
    }
    out
}

/// Writes rows to `<name>.csv` in `dir`, creating the directory if
/// needed. Returns the path written.
///
/// # Errors
///
/// A directory or file that cannot be written, naming the path.
pub fn write_csv<R: Row>(dir: &Path, name: &str, rows: &[R]) -> Result<PathBuf, String> {
    let path = dir.join(format!("{name}.csv"));
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, render_csv(rows)))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(path)
}

/// Formats a float compactly for tables (4 significant decimals, trimmed).
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct R(u32, f64);
    impl Row for R {
        fn headers() -> Vec<&'static str> {
            vec!["n", "value"]
        }
        fn fields(&self) -> Vec<String> {
            vec![self.0.to_string(), fnum(self.1)]
        }
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(&[R(1, 0.5), R(100, 12.25)]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("n") && lines[0].contains("value"));
        assert!(lines[2].trim_start().starts_with('1'));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = render_csv(&[R(1, 0.5)]);
        assert_eq!(c, "n,value\n1,0.5000\n");
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("besync_test_csv");
        let p = write_csv(&dir, "t", &[R(2, 1.0)]).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.starts_with("n,value"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.12345), "0.1235");
        assert_eq!(fnum(4.32109), "4.321");
        assert_eq!(fnum(12345.6), "12345.6");
    }
}
