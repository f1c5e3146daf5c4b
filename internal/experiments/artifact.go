package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
)

// The artifact layout json.MarshalIndent(Artifact{...}, "", "  ") gives,
// plus a trailing newline: points sit two levels deep, so each one opens
// after a four-space indent.
const (
	artifactHead  = "{\n  \"points\": [\n    "
	artifactSep   = ",\n    "
	artifactTail  = "\n  ]\n}\n"
	artifactEmpty = "{\n  \"points\": []\n}\n"
	// pointDepth is the indent level of a point's opening brace.
	pointDepth = 2
	// pointSizeHint sizes buffers for a point with a few estimates.
	pointSizeHint = 640
)

// EncodeArtifact renders points with the canonical artifact encoding
// (two-space indent, trailing newline): byte for byte what
// json.MarshalIndent(Artifact{Points: points}, "", "  ") and a newline
// give, written directly for PointJSON's fixed shape. The bytes are a
// pure function of the points, so an artifact's content address is
// reproducible: the same grid solved twice — or interrupted and resumed —
// encodes identically.
func EncodeArtifact(points []PointJSON) ([]byte, error) {
	return AppendArtifact(make([]byte, 0, len(artifactHead)+len(artifactTail)+len(points)*pointSizeHint), points)
}

// AppendArtifact appends the artifact EncodeArtifact gives for points to
// b. On error b comes back with its original contents.
func AppendArtifact(b []byte, points []PointJSON) ([]byte, error) {
	if len(points) == 0 {
		return append(b, artifactEmpty...), nil
	}
	start := len(b)
	b = append(b, artifactHead...)
	var err error
	for i := range points {
		if i > 0 {
			b = append(b, artifactSep...)
		}
		if b, err = AppendPoint(b, &points[i], true); err != nil {
			return b[:start], err
		}
	}
	return append(b, artifactTail...), nil
}

// AppendPoint appends p's JSON encoding to b. Compact, the bytes are
// json.Marshal(p)'s; indented, they are the point's entry in an
// artifact, as EncodeArtifact lays it out. Like encoding/json, it fails
// on a NaN or infinite ratio (an estimate over zero isolation cycles).
func AppendPoint(b []byte, p *PointJSON, indent bool) ([]byte, error) {
	l := &compactLayout
	if indent {
		l = &indentLayout
	}
	start := len(b)
	b = append(b, '{')
	// first skips the leading comma of the point's first member.
	first := 1
	if p.Table != "" {
		b = append(b, l.table[first:]...)
		b = jsonenc.AppendString(b, p.Table)
		first = 0
	}
	if p.Perturbation != "" {
		b = append(b, l.perturbation[first:]...)
		b = jsonenc.AppendString(b, p.Perturbation)
		first = 0
	}
	b = append(b, l.scenario[first:]...)
	b = strconv.AppendInt(b, int64(p.Scenario), 10)
	b = append(b, l.level...)
	b = jsonenc.AppendString(b, p.Level)
	b = append(b, l.isolationCycles...)
	b = strconv.AppendInt(b, p.IsolationCycles, 10)
	b = append(b, l.estimates...)
	switch {
	case p.Estimates == nil:
		b = append(b, "null"...)
	case len(p.Estimates) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range p.Estimates {
			e := &p.Estimates[i]
			if i == 0 {
				b = append(b, l.estimateOpen[1:]...)
			} else {
				b = append(b, l.estimateOpen...)
			}
			b = append(b, l.name[1:]...)
			b = jsonenc.AppendString(b, e.Name)
			b = append(b, l.model...)
			b = jsonenc.AppendString(b, e.Model)
			b = append(b, l.estIsolationCycles...)
			b = strconv.AppendInt(b, e.IsolationCycles, 10)
			b = append(b, l.contentionCycles...)
			b = strconv.AppendInt(b, e.ContentionCycles, 10)
			b = append(b, l.wcetCycles...)
			b = strconv.AppendInt(b, e.WCETCycles, 10)
			b = append(b, l.ratio...)
			var err error
			if b, err = appendFloat(b, e.Ratio); err != nil {
				return b[:start], err
			}
			b = append(b, l.estimateClose...)
		}
		b = append(b, l.listClose...)
	}
	return append(b, l.pointClose...), nil
}

// pointLayout is one encoding's punctuation around PointJSON's values:
// each member's comma, line break, indent, name and colon, and the line
// breaks before closing brackets. Every member string starts with its
// comma; a first member is written without it.
type pointLayout struct {
	table, perturbation, scenario, level, isolationCycles, estimates string
	estimateOpen, estimateClose, listClose, pointClose               string
	name, model, estIsolationCycles, contentionCycles, wcetCycles    string
	ratio                                                            string
}

var (
	compactLayout = newPointLayout(false)
	indentLayout  = newPointLayout(true)
)

func newPointLayout(indent bool) pointLayout {
	line := func(depth int, s string) string {
		if !indent {
			return s
		}
		return "\n" + strings.Repeat("  ", depth) + s
	}
	member := func(depth int, name string) string {
		if !indent {
			return `,"` + name + `":`
		}
		return "," + line(depth, `"`+name+`": `)
	}
	const d = pointDepth
	return pointLayout{
		table:              member(d+1, "table"),
		perturbation:       member(d+1, "perturbation"),
		scenario:           member(d+1, "scenario"),
		level:              member(d+1, "level"),
		isolationCycles:    member(d+1, "isolationCycles"),
		estimates:          member(d+1, "estimates"),
		estimateOpen:       "," + line(d+2, "{"),
		name:               member(d+3, "name"),
		model:              member(d+3, "model"),
		estIsolationCycles: member(d+3, "isolationCycles"),
		contentionCycles:   member(d+3, "contentionCycles"),
		wcetCycles:         member(d+3, "wcetCycles"),
		ratio:              member(d+3, "ratio"),
		estimateClose:      line(d+2, "}"),
		listClose:          line(d+1, "]"),
		pointClose:         line(d, "}"),
	}
}

// appendFloat formats f as encoding/json formats a float64; like
// encoding/json, it fails on NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	b, ok := jsonenc.AppendFloat(b, f)
	if !ok {
		return b, fmt.Errorf("experiments: encoding point: unsupported ratio %s",
			strconv.FormatFloat(f, 'g', -1, 64))
	}
	return b, nil
}
