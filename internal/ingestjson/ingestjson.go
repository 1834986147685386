// Package ingestjson is the codec of the JSON body of POST /ingest,
//
//	{"entries":[{"SQL":"SELECT …","Count":3},…]}
//
// written without reflection: the client encodes a batch with Append and
// the daemons (logrd and logrd-gateway alike) decode one with Decode.
// Append writes exactly the bytes json.Encoder writes for
// client.IngestRequest with SetEscapeHTML(false), so the `<`, `>` and `&`
// of SQL predicates travel unescaped. Decode returns exactly what
// json.NewDecoder(body).Decode(&client.IngestRequest{}) returns on the
// subset of JSON it reads, and reports a body outside that subset for its
// caller to hand to encoding/json.
package ingestjson

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"logr"
)

const hex = "0123456789abcdef"

// Append appends the /ingest body carrying entries to dst: the bytes
// json.Encoder with SetEscapeHTML(false) writes for
// client.IngestRequest{Entries: entries}, trailing newline included. It
// grows dst once up front by the body's length were no SQL string to need
// an escape and every count to take 20 digits, so the body is built in
// one allocation unless escapes outgrow that slack.
func Append(dst []byte, entries []logr.Entry) []byte {
	if entries == nil {
		return append(dst, "{\"entries\":null}\n"...)
	}
	n := len("{\"entries\":[]}\n")
	for _, e := range entries {
		n += len(`{"SQL":"","Count":-9223372036854775808},`) + len(e.SQL)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, `{"entries":[`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"SQL":`...)
		dst = appendString(dst, e.SQL)
		dst = append(dst, `,"Count":`...)
		dst = strconv.AppendInt(dst, int64(e.Count), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping off: `"` and `\` escaped, control characters as \b, \f,
// \n, \r, \t or \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 escaped; everything else is copied.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := plain(s); i < len(s); i += plain(s[i:]) {
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// plain returns the length of the longest prefix of s that a JSON string
// carries as it is: printable ASCII other than '"' and '\\'. It tests
// eight bytes at a time.
func plain[T string | []byte](s T) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		q, bs := x^(ones*'"'), x^(ones*'\\')
		// a high bit marks a byte that is >= 0x80, < 0x20, '"' or '\\'
		// (or, past one of those, any byte: the exact scan below decides)
		if (x|(x-ones*0x20)|(q-ones)|(bs-ones))&highs != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' {
			break
		}
	}
	return i
}

// Decode parses an /ingest JSON body. ok is false when body lies outside
// the subset Decode reads, and the caller decodes body with encoding/json
// instead. Inside the subset Decode returns exactly what
// json.NewDecoder(bytes.NewReader(body)).Decode(&client.IngestRequest{})
// does, nil entries and duplicate keys included. The subset is:
//
//   - one object, or null, with nothing but whitespace after it;
//   - keys naming a field ("entries", "SQL", "Count") in ASCII of any
//     case, without escapes; the last of duplicate keys wins;
//   - null at any level;
//   - SQL strings that are valid UTF-8, with any escape, \u surrogate
//     pairs included;
//   - Count as a JSON integer that fits an int.
//
// Unknown fields, non-integer or out-of-range counts, values of the wrong
// type, invalid UTF-8 and malformed JSON all fall outside it. Every SQL
// string is copied out of body, so the caller may reuse body once Decode
// returns.
func Decode(body []byte) (entries []logr.Entry, ok bool) {
	d := decoder{b: body}
	d.space()
	if !d.null() && !d.request(&entries) {
		return nil, false
	}
	d.space()
	if d.i != len(d.b) {
		return nil, false
	}
	return entries, true
}

// decoder is a cursor over a body; buf is the scratch an escaped string is
// unquoted into, and hinted records that an entries slice was presized.
type decoder struct {
	b      []byte
	i      int
	buf    []byte
	hinted bool
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if it is next.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// fields walks the members of an object, calling member with each key
// once the cursor stands on its value; member consumes the value.
func (d *decoder) fields(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	d.space()
	if d.eat('}') {
		return true
	}
	for {
		d.space()
		key, ok := d.key()
		if !ok {
			return false
		}
		d.space()
		if !d.eat(':') {
			return false
		}
		d.space()
		if !member(key) {
			return false
		}
		d.space()
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// key reads an object key: printable ASCII without escapes.
func (d *decoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return d.b[start : d.i-1], true
		}
		if c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// is reports whether key names field (lower case) in any ASCII case, the
// way encoding/json matches an ASCII key to a struct field.
func is(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != field[i] {
			return false
		}
	}
	return true
}

// request reads the top-level object.
func (d *decoder) request(entries *[]logr.Entry) bool {
	return d.fields(func(key []byte) bool {
		if !is(key, "entries") {
			return false
		}
		if d.null() {
			*entries = nil
			return true
		}
		return d.array(entries)
	})
}

// array reads the entries array into *entries the way encoding/json
// decodes into a slice that may already hold a duplicate key's elements:
// element i decodes into the slice's element i when there is one
// (merging fields, and a null element leaving it as it is), the slice is
// cut to the array's length, and an empty array leaves an empty, fresh
// slice.
func (d *decoder) array(entries *[]logr.Entry) bool {
	if !d.eat('[') {
		return false
	}
	s := *entries
	i := 0
	d.space()
	if !d.eat(']') {
		if s == nil && !d.hinted {
			// once per body: a body that resets "entries" to null before
			// each of many arrays must not count the rest of itself again
			// for every one of them
			d.hinted = true
			s = make([]logr.Entry, 0, d.entriesHint())
		}
		for {
			d.space()
			if i == len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					s = append(s, logr.Entry{})
				}
			}
			if !d.null() && !d.entry(&s[i]) {
				return false
			}
			i++
			d.space()
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return false
			}
		}
	}
	if i == 0 {
		*entries = []logr.Entry{}
	} else {
		*entries = s[:i]
	}
	return true
}

// entriesHint guesses how many entries are left: one per '{', since each
// entry opens with one, but at most one per 16 bytes, so strings full of
// braces cannot size a large slice. It scans the rest of the body, so
// array calls it at most once per body.
func (d *decoder) entriesHint() int {
	rest := d.b[d.i:]
	return min(bytes.Count(rest, []byte("{")), len(rest)/16)
}

// entry reads one entry object into e.
func (d *decoder) entry(e *logr.Entry) bool {
	return d.fields(func(key []byte) bool {
		switch {
		case d.null():
			return is(key, "sql") || is(key, "count")
		case is(key, "sql"):
			s, ok := d.str()
			e.SQL = s
			return ok
		case is(key, "count"):
			n, ok := d.int()
			e.Count = n
			return ok
		}
		return false
	})
}

// str reads a string value and returns a copy of its unquoted bytes.
func (d *decoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	start := d.i
	d.i += plain(d.b[d.i:])
	if d.eat('"') {
		return string(d.b[start : d.i-1]), true
	}
	buf := append(d.buf[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.buf = buf
			return string(buf), true
		case c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			buf = append(buf, d.b[d.i:d.i+size]...)
			d.i += size
		case c != '\\':
			n := plain(d.b[d.i:])
			buf = append(buf, d.b[d.i:d.i+n]...)
			d.i += n
		default:
			var ok bool
			if buf, ok = d.escape(buf); !ok {
				return "", false
			}
		}
	}
	return "", false
}

// escape unquotes the escape sequence at the cursor onto buf. A \u escape
// of a surrogate half that does not pair with a following \u escape is
// U+FFFD, as in encoding/json.
func (d *decoder) escape(buf []byte) ([]byte, bool) {
	if d.i+1 >= len(d.b) {
		return buf, false
	}
	c := d.b[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		return append(buf, c), true
	case 'b':
		return append(buf, '\b'), true
	case 'f':
		return append(buf, '\f'), true
	case 'n':
		return append(buf, '\n'), true
	case 'r':
		return append(buf, '\r'), true
	case 't':
		return append(buf, '\t'), true
	case 'u':
		r := d.hex4(d.i)
		if r < 0 {
			return buf, false
		}
		d.i += 4
		if utf16.IsSurrogate(r) {
			if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
				if r2 := d.hex4(d.i + 2); r2 >= 0 {
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						d.i += 6
						return utf8.AppendRune(buf, pair), true
					}
				}
			}
			r = utf8.RuneError
		}
		return utf8.AppendRune(buf, r), true
	}
	return buf, false
}

// hex4 reads the four hex digits at i, or -1.
func (d *decoder) hex4(i int) rune {
	if i+4 > len(d.b) {
		return -1
	}
	var r rune
	for _, c := range d.b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// int reads a JSON integer that fits an int: no fraction, no exponent.
func (d *decoder) int() (int, bool) {
	neg := d.eat('-')
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	digits := d.b[start:d.i]
	// 19 digits always fit a uint64; a leading zero must stand alone
	if len(digits) == 0 || len(digits) > 19 || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt:
		return int(u), true
	case neg && u <= uint64(math.MaxInt)+1:
		return -int(u), true
	}
	return 0, false
}
