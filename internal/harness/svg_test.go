package harness

import (
	"bytes"
	"strings"
	"testing"
)

func svgFixture(t *testing.T) []*Result {
	t.Helper()
	g, _ := Find("WebNotreDame")
	inst, err := g.Generate(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*Result{RunConstruction(inst, []int{1, 2, 4}, 1)}
}

func TestRenderFigSVGs(t *testing.T) {
	results := svgFixture(t)
	for name, render := range map[string]func(*bytes.Buffer) error{
		"fig6": func(b *bytes.Buffer) error { return RenderFig6SVG(b, results) },
		"fig7": func(b *bytes.Buffer) error { return RenderFig7SVG(b, results) },
	} {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		for _, want := range []string{"<svg", "</svg>", "polyline", "WebNotreDame", "processors"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s missing %q", name, want)
			}
		}
		// One polyline per series plus markers.
		if strings.Count(out, "<circle") != 3 {
			t.Fatalf("%s: %d markers, want 3", name, strings.Count(out, "<circle"))
		}
	}
}

func TestRenderSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderFig6SVG(&buf, nil); err == nil {
		t.Fatal("want error for empty results")
	}
}
