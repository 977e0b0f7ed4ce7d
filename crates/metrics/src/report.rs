//! Plain-text table rendering for experiment output.

/// A simple left-aligned text table with a header row.
///
/// ```
/// use hadar_metrics::Table;
/// let mut t = Table::new(vec!["Scheduler", "JCT (h)"]);
/// t.row(vec!["Hadar".into(), "2.21".into()]);
/// t.row(vec!["Gavel".into(), "4.97".into()]);
/// let s = t.render();
/// assert!(s.contains("Hadar"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render to a string with a separator line under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                // Pad all but the last column.
                if i + 1 < cols {
                    out.extend(std::iter::repeat_n(' ', widths[i] - c.len()));
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["A", "Blong"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("A   "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["A"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
