//! Minimal HTML parsing for DWTC-style pages.
//!
//! Web pages in the corpus consist of paragraphs (`<p>`, or bare text
//! blocks) and tables (`<table>` / `<tr>` / `<td>` / `<th>` /
//! `<caption>`). This parser extracts exactly that structure, decoding the
//! common entities; all other markup is stripped. It is intentionally
//! forgiving — ad-hoc web tables frequently have unclosed tags.

/// A raw table: caption plus a grid of cell strings (`true` marks header
/// cells, from `<th>`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawTable {
    /// `<caption>` content, if any.
    pub caption: String,
    /// Cell text by row; rows may have differing lengths before padding.
    pub rows: Vec<Vec<String>>,
    /// Header flags parallel to `rows`.
    pub header_flags: Vec<Vec<bool>>,
}

/// A parsed page: the textual paragraphs and the raw tables, in document
/// order. `table_positions[i]` is the paragraph index *before* which table
/// `i` appeared (used by segmentation for proximity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawPage {
    /// Paragraph texts in order.
    pub paragraphs: Vec<String>,
    /// Tables in order.
    pub tables: Vec<RawTable>,
    /// For each table, the number of paragraphs seen before it.
    pub table_positions: Vec<usize>,
}

/// Decode the common HTML entities.
pub fn decode_entities(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        // An entity is at most 10 bytes from `&` to `;`, so only that
        // window is searched: scanning the whole remaining input at every
        // `&` made decoding quadratic. `;` is ASCII, so its byte index is
        // a char boundary.
        let semi = rest.bytes().take(11).position(|b| b == b';');
        match semi {
            Some(end) => {
                let ent = &rest[1..end];
                let decoded = match ent {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    "nbsp" => Some(' '),
                    "euro" => Some('€'),
                    "pound" => Some('£'),
                    "yen" => Some('¥'),
                    "plusmn" => Some('±'),
                    "ndash" => Some('–'),
                    "mdash" => Some('—'),
                    _ => ent
                        .strip_prefix('#')
                        .and_then(|n| {
                            if let Some(hex) = n.strip_prefix('x').or_else(|| n.strip_prefix('X')) {
                                u32::from_str_radix(hex, 16).ok()
                            } else {
                                n.parse::<u32>().ok()
                            }
                        })
                        .and_then(char::from_u32),
                };
                match decoded {
                    Some(c) => {
                        out.push(c);
                        rest = &rest[end + 1..];
                    }
                    None => {
                        out.push('&');
                        rest = &rest[1..];
                    }
                }
            }
            _ => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[derive(Debug, PartialEq)]
enum Tag<'a> {
    Open(&'a str),
    Close(&'a str),
}

/// Iterate over tags and text chunks.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

enum Piece<'a> {
    Text(&'a str),
    Markup(Tag<'a>),
}

impl<'a> Lexer<'a> {
    fn next_piece(&mut self) -> Option<Piece<'a>> {
        // Iterative (comments `continue` the loop): a page made of millions
        // of consecutive comments must not grow the call stack.
        loop {
            if self.pos >= self.src.len() {
                return None;
            }
            let rest = &self.src[self.pos..];
            if let Some(stripped) = rest.strip_prefix('<') {
                // comments
                if let Some(after) = stripped.strip_prefix("!--") {
                    let end = after.find("-->").map(|i| i + 3).unwrap_or(after.len());
                    self.pos += 1 + 3 + end;
                    continue;
                }
                return match rest.find('>') {
                    Some(end) => {
                        let inner = &rest[1..end];
                        self.pos += end + 1;
                        let (is_close, name_part) = match inner.strip_prefix('/') {
                            Some(p) => (true, p),
                            None => (false, inner),
                        };
                        let name_end = name_part
                            .find(|c: char| c.is_whitespace() || c == '/')
                            .unwrap_or(name_part.len());
                        let name = &name_part[..name_end];
                        Some(Piece::Markup(if is_close {
                            Tag::Close(name)
                        } else {
                            Tag::Open(name)
                        }))
                    }
                    None => {
                        // stray '<': treat as text
                        self.pos = self.src.len();
                        Some(Piece::Text(rest))
                    }
                };
            }
            let end = rest.find('<').unwrap_or(rest.len());
            self.pos += end;
            return Some(Piece::Text(&rest[..end]));
        }
    }
}

fn eq_tag(name: &str, want: &str) -> bool {
    name.eq_ignore_ascii_case(want)
}

/// Parse an HTML fragment into paragraphs and tables.
pub fn parse_page(html: &str) -> RawPage {
    let mut page = RawPage::default();
    let mut lexer = Lexer { src: html, pos: 0 };

    let mut para_buf = String::new();
    let mut in_table = false;
    let mut in_caption = false;
    let mut in_cell = false;
    let mut cur_table = RawTable::default();
    let mut cur_row: Vec<String> = Vec::new();
    let mut cur_flags: Vec<bool> = Vec::new();
    let mut cell_buf = String::new();
    let mut cell_is_header = false;
    let mut skip_depth = 0usize; // inside <script>/<style>

    let flush_para = |buf: &mut String, page: &mut RawPage| {
        let text = decode_entities(buf).trim().to_string();
        buf.clear();
        if !text.is_empty() {
            page.paragraphs.push(collapse_ws(&text));
        }
    };

    while let Some(piece) = lexer.next_piece() {
        match piece {
            Piece::Text(t) => {
                if skip_depth > 0 {
                    continue;
                }
                if in_caption {
                    cur_table.caption.push_str(t);
                } else if in_cell {
                    cell_buf.push_str(t);
                } else if !in_table {
                    para_buf.push_str(t);
                }
            }
            Piece::Markup(tag) => match tag {
                Tag::Open(name) if eq_tag(name, "script") || eq_tag(name, "style") => {
                    skip_depth += 1;
                }
                Tag::Close(name) if eq_tag(name, "script") || eq_tag(name, "style") => {
                    skip_depth = skip_depth.saturating_sub(1);
                }
                _ if skip_depth > 0 => {}
                Tag::Open(name) if eq_tag(name, "table") => {
                    flush_para(&mut para_buf, &mut page);
                    in_table = true;
                    cur_table = RawTable::default();
                    page.table_positions.push(page.paragraphs.len());
                }
                Tag::Close(name) if eq_tag(name, "table") => {
                    if in_cell {
                        finish_cell(&mut cell_buf, cell_is_header, &mut cur_row, &mut cur_flags);
                        in_cell = false;
                    }
                    if !cur_row.is_empty() {
                        cur_table.rows.push(std::mem::take(&mut cur_row));
                        cur_table.header_flags.push(std::mem::take(&mut cur_flags));
                    }
                    cur_table.caption = collapse_ws(decode_entities(&cur_table.caption).trim());
                    if !cur_table.rows.is_empty() {
                        page.tables.push(std::mem::take(&mut cur_table));
                    } else {
                        page.table_positions.pop();
                    }
                    in_table = false;
                    in_caption = false;
                }
                Tag::Open(name) if eq_tag(name, "caption") && in_table => {
                    in_caption = true;
                }
                Tag::Close(name) if eq_tag(name, "caption") => {
                    in_caption = false;
                }
                Tag::Open(name) if eq_tag(name, "tr") && in_table => {
                    if in_cell {
                        finish_cell(&mut cell_buf, cell_is_header, &mut cur_row, &mut cur_flags);
                        in_cell = false;
                    }
                    if !cur_row.is_empty() {
                        cur_table.rows.push(std::mem::take(&mut cur_row));
                        cur_table.header_flags.push(std::mem::take(&mut cur_flags));
                    }
                }
                Tag::Close(name) if eq_tag(name, "tr") && in_table => {
                    if in_cell {
                        finish_cell(&mut cell_buf, cell_is_header, &mut cur_row, &mut cur_flags);
                        in_cell = false;
                    }
                    if !cur_row.is_empty() {
                        cur_table.rows.push(std::mem::take(&mut cur_row));
                        cur_table.header_flags.push(std::mem::take(&mut cur_flags));
                    }
                }
                Tag::Open(name) if (eq_tag(name, "td") || eq_tag(name, "th")) && in_table => {
                    if in_cell {
                        finish_cell(&mut cell_buf, cell_is_header, &mut cur_row, &mut cur_flags);
                    }
                    in_cell = true;
                    cell_is_header = eq_tag(name, "th");
                }
                Tag::Close(name) if (eq_tag(name, "td") || eq_tag(name, "th")) && in_cell => {
                    finish_cell(&mut cell_buf, cell_is_header, &mut cur_row, &mut cur_flags);
                    in_cell = false;
                }
                Tag::Open(name)
                    if !in_table
                        && (eq_tag(name, "p")
                            || eq_tag(name, "br")
                            || eq_tag(name, "div")
                            || eq_tag(name, "h1")
                            || eq_tag(name, "h2")
                            || eq_tag(name, "h3")) =>
                {
                    flush_para(&mut para_buf, &mut page);
                }
                Tag::Close(name)
                    if !in_table
                        && (eq_tag(name, "p")
                            || eq_tag(name, "div")
                            || eq_tag(name, "h1")
                            || eq_tag(name, "h2")
                            || eq_tag(name, "h3")) =>
                {
                    flush_para(&mut para_buf, &mut page);
                }
                _ => {} // unknown inline tags: ignored (b, i, span, a, …)
            },
        }
    }
    flush_para(&mut para_buf, &mut page);
    page
}

fn finish_cell(buf: &mut String, header: bool, row: &mut Vec<String>, flags: &mut Vec<bool>) {
    let text = collapse_ws(decode_entities(buf).trim());
    buf.clear();
    row.push(text);
    flags.push(header);
}

fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_ws = false;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_ws && !out.is_empty() {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_page() {
        let page = parse_page(
            "<p>Some text about 42 things.</p>\
             <table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>2</td></tr></table>\
             <p>After the table.</p>",
        );
        assert_eq!(
            page.paragraphs,
            vec!["Some text about 42 things.", "After the table."]
        );
        assert_eq!(page.tables.len(), 1);
        assert_eq!(page.tables[0].rows, vec![vec!["a", "b"], vec!["1", "2"]]);
        assert_eq!(page.tables[0].header_flags[0], vec![true, true]);
        assert_eq!(page.tables[0].header_flags[1], vec![false, false]);
        assert_eq!(page.table_positions, vec![1]);
    }

    #[test]
    fn caption_extracted() {
        let page = parse_page(
            "<table><caption>Income gains (in Mio)</caption><tr><td>890</td></tr></table>",
        );
        assert_eq!(page.tables[0].caption, "Income gains (in Mio)");
    }

    #[test]
    fn entities_decoded() {
        let page = parse_page("<p>costs 37&nbsp;&euro; &amp; more</p>");
        assert_eq!(page.paragraphs[0], "costs 37 € & more");
        assert_eq!(decode_entities("&#8364;"), "€");
        assert_eq!(decode_entities("&#x20AC;"), "€");
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
    }

    #[test]
    fn unclosed_cells_tolerated() {
        let page = parse_page("<table><tr><td>1<td>2<tr><td>3<td>4</table>");
        assert_eq!(page.tables[0].rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn attributes_ignored() {
        let page = parse_page(r#"<table class="x"><tr><td colspan="2">v</td></tr></table>"#);
        assert_eq!(page.tables[0].rows, vec![vec!["v"]]);
    }

    #[test]
    fn inline_markup_stripped() {
        let page = parse_page("<p>The <b>net income</b> of <a href='#'>2013</a>.</p>");
        assert_eq!(page.paragraphs[0], "The net income of 2013.");
    }

    #[test]
    fn script_and_style_skipped() {
        let page = parse_page("<script>var x = '<p>no</p>';</script><p>yes</p><style>p{}</style>");
        assert_eq!(page.paragraphs, vec!["yes"]);
    }

    #[test]
    fn empty_tables_dropped() {
        let page = parse_page("<table></table><p>text</p>");
        assert!(page.tables.is_empty());
        assert!(page.table_positions.is_empty());
    }

    #[test]
    fn multiple_tables_positions() {
        let page = parse_page(
            "<p>one</p><table><tr><td>1</td></tr></table>\
             <p>two</p><p>three</p><table><tr><td>2</td></tr></table>",
        );
        assert_eq!(page.table_positions, vec![1, 3]);
    }

    #[test]
    fn comments_skipped() {
        let page = parse_page("<p>a<!-- hidden <table> -->b</p>");
        assert_eq!(page.paragraphs, vec!["ab"]);
    }

    #[test]
    fn comment_flood_does_not_overflow_stack() {
        let mut html = String::from("<p>a</p>");
        html.push_str(&"<!--x-->".repeat(200_000));
        html.push_str("<p>b</p>");
        let page = parse_page(&html);
        assert_eq!(page.paragraphs, vec!["a", "b"]);
    }

    #[test]
    fn unterminated_comment_swallows_tail() {
        let page = parse_page("<p>a</p><!-- open comment <p>never</p>");
        assert_eq!(page.paragraphs, vec!["a"]);
    }

    #[test]
    fn whitespace_collapsed() {
        let page = parse_page("<p>a\n   b\t c</p>");
        assert_eq!(page.paragraphs, vec!["a b c"]);
    }
}
