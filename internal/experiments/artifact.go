package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
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
	if len(points) == 0 {
		return []byte(artifactEmpty), nil
	}
	b := make([]byte, 0, len(artifactHead)+len(artifactTail)+len(points)*pointSizeHint)
	b = append(b, artifactHead...)
	var err error
	for i := range points {
		if i > 0 {
			b = append(b, artifactSep...)
		}
		if b, err = AppendPoint(b, &points[i], true); err != nil {
			return nil, err
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
		b = appendString(b, p.Table)
		first = 0
	}
	if p.Perturbation != "" {
		b = append(b, l.perturbation[first:]...)
		b = appendString(b, p.Perturbation)
		first = 0
	}
	b = append(b, l.scenario[first:]...)
	b = strconv.AppendInt(b, int64(p.Scenario), 10)
	b = append(b, l.level...)
	b = appendString(b, p.Level)
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
			b = appendString(b, e.Name)
			b = append(b, l.model...)
			b = appendString(b, e.Model)
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

// appendFloat formats f as encoding/json formats a float64: the shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("experiments: encoding point: unsupported ratio %s",
			strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping (its
// default): `"` and `\` backslashed; \b, \f, \n, \r and \t by name; other
// control bytes and <, > and & as \u00XX; U+2028 and U+2029 as \u2028 and
// \u2029; and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
