// Package jsonenc holds the two value encodings the direct JSON encoders
// of this repository share (the campaign artifact's and the analysis
// responses'): strings and float64s exactly as encoding/json writes them
// by default. Those encoders write the punctuation and layout of their
// own fixed shapes; the values in between come from here, so their bytes
// match encoding/json's by construction.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json formats a float64: the shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded. encoding/json rejects NaN and the
// infinities; so does AppendFloat, returning b unchanged and false.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
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
	return b, true
}

const hexDigits = "0123456789abcdef"

// AppendString quotes s as encoding/json does with HTML escaping (its
// default): `"` and `\` backslashed; \b, \f, \n, \r and \t by name; other
// control bytes and <, > and & as \u00XX; U+2028 and U+2029 as \u2028 and
// \u2029; and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
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
