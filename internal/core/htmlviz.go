package core

import (
	"fmt"
	"html"
	"strings"

	"logr/internal/feature"
)

// HTML rendering of naive mixture encodings: the faithful version of the
// paper's Figure 1a / Figure 10 shading, where each feature's background
// intensity encodes its marginal. VisualizeHTML produces a self-contained
// document suitable for reports and dashboards.

// VisualizeHTML renders the mixture as a standalone HTML document.
func VisualizeHTML(m Mixture, book *feature.Codebook, opts VisualizeOptions) string {
	opts = opts.withDefaults()
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>LogR summary</title><style>
body { font-family: monospace; background: #fafafa; margin: 2em; }
.cluster { background: #fff; border: 1px solid #ddd; border-radius: 6px;
           padding: 1em; margin-bottom: 1em; }
.cluster h3 { margin: 0 0 .5em 0; font-size: 1em; color: #444; }
.clause { margin: .15em 0; }
.kw { color: #888; display: inline-block; width: 7em; }
.feat { padding: 0 .35em; border-radius: 3px; margin-right: .3em;
        display: inline-block; }
</style></head><body>
<h2>LogR naive mixture encoding</h2>
`)
	for i, c := range m.Components {
		fmt.Fprintf(&sb, `<div class="cluster"><h3>cluster %d — weight %.1f%%, %d queries, verbosity %d</h3>`+"\n",
			i+1, m.Weight(i)*100, c.Count, c.Verbosity())
		sb.WriteString(clusterHTML(c, book, opts))
		sb.WriteString("</div>\n")
	}
	sb.WriteString("</body></html>\n")
	return sb.String()
}

func clusterHTML(e Naive, book *feature.Codebook, opts VisualizeOptions) string {
	var sb strings.Builder
	for _, c := range clauses(e, book, opts) {
		fmt.Fprintf(&sb, `<div class="clause"><span class="kw">%s</span>`, c.name)
		for _, en := range c.entries {
			fmt.Fprintf(&sb,
				`<span class="feat" style="background:%s" title="marginal %.3f">%s</span>`,
				shadeColor(en.p), en.p, html.EscapeString(en.text))
		}
		sb.WriteString("</div>\n")
	}
	return sb.String()
}

// shadeColor maps a marginal to a blue shade: the paper's grey-scale
// highlighting, but legible on screens.
func shadeColor(p float64) string {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// interpolate #ffffff → #4a90d9
	r := int(255 - p*(255-74))
	g := int(255 - p*(255-144))
	b := int(255 - p*(255-217))
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}
