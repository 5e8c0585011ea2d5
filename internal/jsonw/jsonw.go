// Package jsonw writes and reads the JSON documents the platform stores
// and serves on its hot paths (invocation records, response envelopes,
// event-log bounds) without encoding/json's reflection. What it writes
// is, byte for byte, what encoding/json writes for the same Go values,
// errors included, and what its Scanner reads, json.Unmarshal reads the
// same; the fuzz target beside it holds both halves to encoding/json.
// The writers append to the caller's slice and allocate only to grow it.
package jsonw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"
)

const (
	// hexDigits holds the lowercase hex digits, then the uppercase ones.
	hexDigits = "0123456789abcdef0123456789ABCDEF"
	// escaped lists the bytes a JSON string may escape by name, and
	// escapeNames their names, in the same order.
	escaped     = "\"\\/\b\f\n\r\t"
	escapeNames = `"\/bfnrt`
)

// AppendString appends s as encoding/json writes a string: quoted, with
// '"' and '\\' backslash-escaped, \n \r \t \b \f by name, every other
// control byte and <, > and & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if c >= utf8.RuneSelf && size > 1 && r != '\u2028' && r != '\u2029' {
			i += size // any other rune stays as it is
			continue
		}
		dst = append(dst, s[start:i]...)
		switch j := strings.IndexByte(escaped, c); {
		case j >= 0:
			dst = append(dst, '\\', escapeNames[j])
		case c < utf8.RuneSelf:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		case size == 1: // invalid UTF-8
			dst = append(dst, `\ufffd`...)
		default: // U+2028, U+2029
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendRaw appends raw as encoding/json writes a json.RawMessage:
// compacted, with <, >, &, U+2028 and U+2029 inside strings escaped as
// AppendString escapes them and every other byte as it is. raw that is
// not one JSON value (empty raw included) is CheckRaw's error, and dst
// comes back as it was. Raw that is already compact and has nothing to
// escape is one copy, so with room in dst nothing is allocated.
func AppendRaw(dst, raw []byte) ([]byte, error) {
	if err := CheckRaw(raw); err != nil {
		return dst, err
	}
	start, inString := 0, false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case !inString:
			inString = c == '"'
			if isSpace(c) {
				dst = append(dst, raw[start:i]...)
				start = i + 1
			}
		case c == '\\':
			i++ // the escaped byte never ends the string
		case c == '"':
			inString = false
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, raw[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			start = i + 1
		case c == 0xe2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xa8: // U+2028, U+2029
			dst = append(dst, raw[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xf])
			i += 2
			start = i + 1
		}
	}
	return append(dst, raw[start:]...), nil
}

// CheckRaw returns the error, in encoding/json's words, with which
// encoding/json refuses to write raw as a json.RawMessage, or nil.
func CheckRaw(raw []byte) error {
	if json.Valid(raw) {
		return nil
	}
	// json.Compact runs the scanner that marshalling a RawMessage runs,
	// so its syntax error is the one encoding/json reports.
	return marshalerError("json.RawMessage", json.Compact(new(bytes.Buffer), raw))
}

// AppendTime appends t as encoding/json writes a time.Time: quoted
// RFC 3339 with as many fractional digits as it needs. Like
// encoding/json it refuses, with its error, a year outside 0-9999 or a
// zone offset of a day or more, and returns dst as it was.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	if _, offset := t.Zone(); t.Year() < 0 || t.Year() > 9999 || offset <= -24*3600 || offset >= 24*3600 {
		_, err := t.MarshalJSON()
		return dst, marshalerError("time.Time", err)
	}
	dst = t.AppendFormat(append(dst, '"'), time.RFC3339Nano)
	return append(dst, '"'), nil
}

// marshalerError is encoding/json's error for a value of type typ whose
// MarshalJSON failed with err.
func marshalerError(typ string, err error) error {
	return fmt.Errorf("json: error calling MarshalJSON for type %s: %w", typ, err)
}

// AppendKey appends an object member's quoted name and colon, after a
// comma unless dst ends with the object's opening brace: no JSON value
// ends with '{', so that is the first member.
func AppendKey(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(AppendString(dst, name), ':')
}

// AppendStringMap appends m as encoding/json writes a map[string]string:
// an object with the keys in sorted order.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	var keyBuf [4]string // a trigger-chained invocation's two args sort on the stack
	keys := keyBuf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for _, k := range keys {
		dst = AppendString(AppendKey(dst, k), m[k])
	}
	return append(dst, '}')
}
