package report

import "strings"

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	b.WriteString("|")
	for range t.header {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
