//! Minimal CSV writer for experiment output files.
//!
//! Fields containing commas, quotes, or newlines are quoted per RFC 4180.
//! Kept dependency-free by design (DESIGN.md §8).

use std::io;
use std::path::Path;

/// Accumulates CSV rows and writes them to a file or string.
#[derive(Debug, Clone)]
pub struct CsvWriter {
    buf: String,
    width: usize,
}

impl CsvWriter {
    /// Start a CSV document with the given header columns.
    pub fn new<S: AsRef<str>>(header: &[S]) -> Self {
        let mut w = Self {
            buf: String::new(),
            width: header.len(),
        };
        w.push_row(header.iter().map(|s| s.as_ref().to_owned()).collect());
        w
    }

    /// Append a row of already-stringified cells.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.width, "CSV row width mismatch");
        self.push_row(cells);
        self
    }

    fn push_row(&mut self, cells: Vec<String>) {
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&escape(c));
        }
        self.buf.push('\n');
    }

    /// The document so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Write to `path`, creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &self.buf)
    }
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_document() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(vec!["1", "x"]);
        w.row(vec!["2.5", "3"]);
        assert_eq!(w.as_str(), "a,b\n1,x\n2.5,3\n");
    }

    #[test]
    fn escaping() {
        let mut w = CsvWriter::new(&["v"]);
        w.row(vec!["a,b"]);
        w.row(vec!["say \"hi\""]);
        w.row(vec!["two\nlines"]);
        assert_eq!(
            w.as_str(),
            "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"two\nlines\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_checked() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(vec!["only-one"]);
    }

    #[test]
    fn writes_file_with_parents() {
        let dir = std::env::temp_dir().join("hadar-metrics-test");
        let path = dir.join("sub").join("out.csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = CsvWriter::new(&["x"]);
        w.row(vec!["1"]);
        w.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
