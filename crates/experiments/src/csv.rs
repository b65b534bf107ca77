//! Minimal CSV output into the results directory.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A CSV file being written under `results/`.
#[derive(Debug)]
pub struct CsvWriter {
    path: PathBuf,
    out: BufWriter<File>,
    columns: usize,
    rows: u64,
}

impl CsvWriter {
    /// Creates `results/<name>.csv` with the given header.
    pub fn create(name: &str, header: &[&str]) -> std::io::Result<CsvWriter> {
        Self::create_in(&crate::results_dir(), name, header)
    }

    /// Creates `<dir>/<name>.csv` with the given header.
    pub fn create_in(dir: &Path, name: &str, header: &[&str]) -> std::io::Result<CsvWriter> {
        assert!(!header.is_empty());
        let path = dir.join(format!("{name}.csv"));
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(out, "{}", header.join(","))?;
        Ok(CsvWriter {
            path,
            out,
            columns: header.len(),
            rows: 0,
        })
    }

    /// Data rows written so far (the header is not counted).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Writes one row of numeric cells.
    pub fn row(&mut self, cells: &[f64]) -> std::io::Result<()> {
        assert_eq!(cells.len(), self.columns, "cell count must match header");
        let line: Vec<String> = cells.iter().map(|c| format!("{c:.10e}")).collect();
        self.rows += 1;
        writeln!(self.out, "{}", line.join(","))
    }

    /// Flushes and reports the file path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gps_csv_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_readable_csv() {
        let dir = tmp_dir("basic");
        let mut w = CsvWriter::create_in(&dir, "_test_csv", &["x", "y"]).unwrap();
        w.row(&[1.0, 2.0]).unwrap();
        w.row(&[3.0, 4.5]).unwrap();
        assert_eq!(w.rows(), 2);
        let path = w.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "x,y");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1.0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn row_length_checked() {
        let dir = tmp_dir("checked");
        let mut w = CsvWriter::create_in(&dir, "_test_csv3", &["a", "b"]).unwrap();
        let r = w.row(&[1.0]);
        // Unreachable: the assert above fires first. Keeps the writer used.
        let _ = r;
    }
}
