package sched

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"spear/internal/dag"
)

// svgPalette cycles task colours; chosen for contrast on white.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// WriteSVG renders the schedule as a standalone SVG Gantt chart: one row
// per task (sorted by start time), the x-axis in schedule time, with a
// labelled bar per task. Width and rowHeight are in pixels; sensible
// minimums are enforced.
func (s *Schedule) WriteSVG(w io.Writer, g *dag.Graph, width, rowHeight int) error {
	if s.Makespan <= 0 || len(s.Placements) == 0 {
		return fmt.Errorf("sched: cannot render an empty schedule")
	}
	if width < 200 {
		width = 200
	}
	if rowHeight < 12 {
		rowHeight = 12
	}
	const labelW = 110
	const topPad = 28
	chartW := width - labelW

	ps := make([]Placement, len(s.Placements))
	copy(ps, s.Placements)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Start != ps[j].Start {
			return ps[i].Start < ps[j].Start
		}
		return ps[i].Task < ps[j].Task
	})

	height := topPad + rowHeight*len(ps) + 24
	scale := float64(chartW) / float64(s.Makespan)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="4" y="16" font-size="13">%s — makespan %d</text>`+"\n", escapeXML(s.Algorithm), s.Makespan)

	// Vertical gridlines at ~10 divisions.
	step := s.Makespan / 10
	if step < 1 {
		step = 1
	}
	for t := int64(0); t <= s.Makespan; t += step {
		x := labelW + int(float64(t)*scale)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n", x, topPad, x, height-20)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#666">%d</text>`+"\n", x+2, height-8, t)
	}

	multi := s.onManyMachines()
	for i, p := range ps {
		task := g.Task(p.Task)
		y := topPad + i*rowHeight
		x := labelW + int(float64(p.Start)*scale)
		barW := int(float64(task.Runtime) * scale)
		if barW < 1 {
			barW = 1
		}
		color := svgPalette[int(p.Task)%len(svgPalette)]
		machineTag := ""
		if multi {
			machineTag = fmt.Sprintf(" m%d", p.Machine)
		}
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+rowHeight-4, escapeXML(truncate(task.Name, 14)))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333"><title>%s [%d,%d)%s demand %s</title></rect>`+"\n",
			x, y+2, barW, rowHeight-4, color, escapeXML(task.Name), p.Start, p.Start+task.Runtime, machineTag, escapeXML(task.Demand.String()))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
