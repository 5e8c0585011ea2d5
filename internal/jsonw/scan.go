package jsonw

import (
	"encoding/json"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner reads, token by token, a JSON document whose members the
// caller expects in a fixed order, such as one this package's writers
// made or a request body in the shape clients write. A string or value
// that is not JSON marks the scan bad and the scan goes on; Done reports
// it once, at the end. What a scan that ends Done read, json.Unmarshal
// reads from the same document.
type Scanner struct {
	b   []byte
	i   int
	bad bool
}

// NewScanner starts a scan of b.
func NewScanner(b []byte) Scanner { return Scanner{b: b} }

// Lit consumes lit if the document continues with it, byte for byte.
func (s *Scanner) Lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// Done reports whether the scan consumed the whole document and every
// token in it was JSON.
func (s *Scanner) Done() bool { return !s.bad && s.i == len(s.b) }

// Str consumes a string and appends its value, decoded as json.Unmarshal
// decodes it, to dst. With a nil dst, a string that has nothing to
// decode (no escape, valid UTF-8) is returned as it stands: an alias of
// the document, which the caller must not write into.
func (s *Scanner) Str(dst []byte) []byte {
	if s.i == len(s.b) || s.b[s.i] != '"' {
		s.bad = true
		return dst
	}
	out, start, run := dst, s.i+1, s.i+1 // run: where the bytes not yet appended to out begin
	for i := start; i < len(s.b); {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			if dst == nil && run == start {
				return s.b[start:i]
			}
			return append(out, s.b[run:i]...)
		case c == '\\':
			var ok bool
			if out, i, ok = unescape(append(out, s.b[run:i]...), s.b, i); !ok {
				s.bad = true
				return dst
			}
			run = i
		case c < ' ':
			s.bad = true
			return dst
		case c < utf8.RuneSelf:
			i++
		default:
			_, size := utf8.DecodeRune(s.b[i:])
			if size == 1 { // invalid UTF-8: json.Unmarshal reads U+FFFD
				out = utf8.AppendRune(append(out, s.b[run:i]...), utf8.RuneError)
				run = i + 1
			}
			i += size
		}
	}
	s.bad = true
	return dst
}

// unescape appends the value of the escape sequence at b[i:] to dst and
// returns the index after it, as json.Unmarshal decodes it: half a
// surrogate pair not followed by its other half reads as U+FFFD. It
// reports false for a sequence JSON does not allow.
func unescape(dst, b []byte, i int) ([]byte, int, bool) {
	if i+1 == len(b) {
		return dst, i, false
	}
	if j := strings.IndexByte(escapeNames, b[i+1]); j >= 0 {
		return append(dst, escaped[j]), i + 2, true
	}
	r := hex4(b[i+1:])
	if r < 0 {
		return dst, i, false
	}
	if i += 6; utf16.IsSurrogate(r) {
		next := rune(-1)
		if len(b)-i > 1 && b[i] == '\\' {
			next = hex4(b[i+1:])
		}
		if r = utf16.DecodeRune(r, next); r != utf8.RuneError {
			i += 6
		}
	}
	return utf8.AppendRune(dst, r), i, true
}

// hex4 decodes the "uXXXX" b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 5 || b[0] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[1:5] {
		d := strings.IndexByte(hexDigits, c)
		if d < 0 {
			return -1
		}
		r = r<<4 | rune(d&0xf)
	}
	return r
}

// Time consumes a string and decodes it into t with Time.UnmarshalJSON,
// which json.Unmarshal calls with the same bytes.
func (s *Scanner) Time(t *time.Time) {
	start := s.i
	if s.Str(nil); s.bad || t.UnmarshalJSON(s.b[start:s.i]) != nil {
		s.bad = true
	}
}

// Value consumes one JSON value of any kind and returns it without the
// whitespace around it, as json.Unmarshal hands a json.RawMessage its
// bytes. It finds the end by nesting depth alone (the comma or closing
// brace outside every string and bracket) and has json.Valid vouch for
// what lies before it.
func (s *Scanner) Value() []byte {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
	start, depth, inString := s.i, 0, false
scan:
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case inString:
			if c == '\\' {
				s.i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{', c == '[':
			depth++
		case c == '}', c == ']':
			if depth == 0 {
				break scan
			}
			depth--
		case c == ',' && depth == 0:
			break scan
		}
	}
	s.i = min(s.i, len(s.b))
	end := s.i
	for end > start && isSpace(s.b[end-1]) {
		end--
	}
	v := s.b[start:end:end]
	if !json.Valid(v) {
		s.bad = true
	}
	return v
}

// isSpace reports whether c is JSON whitespace: space, tab, CR or LF.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// IsNull reports whether v, JSON whitespace aside, is empty or null.
func IsNull(v []byte) bool {
	i, j := 0, len(v)
	for i < j && isSpace(v[i]) {
		i++
	}
	for j > i && isSpace(v[j-1]) {
		j--
	}
	return i == j || string(v[i:j]) == "null"
}
