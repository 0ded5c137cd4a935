// Package jsonl is the strict line codec behind the repository's JSONL
// streams: one JSON object per line, read without reflection and
// written byte for byte the way encoding/json writes it.
//
// Reading is strict where encoding/json is lenient. Keys match exactly
// (no case folding), a key appears at most once per object, a line
// holds one object and nothing after it but whitespace, and every
// required field of a Schema must be present. Schema violations
// (unknown, duplicate or missing fields) are *FieldError; malformed
// JSON, including invalid UTF-8, lone surrogates and numbers that do
// not fit their type, is *SyntaxError. Callers map the two to their own
// error contracts with errors.As. A null value counts as an absent
// field.
//
// Writing appends to a byte slice. AppendString escapes exactly as
// json.Encoder does; integers are written with strconv's append
// functions, and fixed-precision floats with AppendFixed, which appends
// strconv's 'f' bytes without its multi-precision decimal.
package jsonl

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxLine is the longest line ReadLines accepts.
const maxLine = 16 << 20

// ReadLines calls fn with each non-empty line of r, stopping at the
// first error. A trailing "\r" is dropped. The line's bytes are valid
// only during the call. With an error it returns the 1-based number of
// the line that failed, blank lines counted: the one fn rejected, or
// the one r could not deliver (a read error, or a line over 16 MiB).
func ReadLines(r io.Reader, fn func(b []byte) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	n := 1
	for ; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return n, err
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return 0, nil
}

// SyntaxError is malformed JSON at a byte offset of the line.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsonl: %s at byte %d", e.Msg, e.Offset)
}

// FieldError is well-formed JSON whose keys do not fit the schema.
type FieldError struct {
	Problem string // "unknown", "duplicate" or "missing"
	Field   string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("%s field %q", e.Problem, e.Field)
}

// Schema is the set of keys an object may carry. A field's index is
// its position in NewSchema's arguments, required fields first.
type Schema struct {
	names    []string
	required uint64
}

// NewSchema returns the schema of an object with the given required
// and optional keys, at most 64 in all.
func NewSchema(required []string, optional ...string) *Schema {
	names := append(append([]string(nil), required...), optional...)
	if len(names) > 64 {
		panic("jsonl: schema has more than 64 fields")
	}
	return &Schema{names: names, required: 1<<len(required) - 1}
}

// index returns key's field index, trying guess first: objects written
// in schema order hit it every time.
func (s *Schema) index(key []byte, guess int) int {
	if guess < len(s.names) && string(key) == s.names[guess] {
		return guess
	}
	for i, name := range s.names {
		if string(key) == name {
			return i
		}
	}
	return -1
}

// Decoder reads the values of one line. The zero value is ready for
// Reset.
type Decoder struct {
	buf     []byte
	pos     int
	scratch []byte // unescaped string bytes
}

// Reset points d at a new line.
func (d *Decoder) Reset(line []byte) {
	d.buf, d.pos = line, 0
}

// End checks that nothing but whitespace is left on the line.
func (d *Decoder) End() error {
	d.skipSpace()
	if d.pos != len(d.buf) {
		return d.errorf("trailing bytes after the object")
	}
	return nil
}

func (d *Decoder) errorf(format string, args ...any) error {
	return &SyntaxError{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

func (d *Decoder) skipSpace() {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return
	}
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte without consuming
// it, or 0 at the end of the line.
func (d *Decoder) next() byte {
	d.skipSpace()
	if d.pos == len(d.buf) {
		return 0
	}
	return d.buf[d.pos]
}

func (d *Decoder) expect(c byte) error {
	switch got := d.next(); got {
	case c:
		d.pos++
		return nil
	case 0:
		return d.errorf("unexpected end of line, want %q", c)
	default:
		return d.errorf("unexpected %q, want %q", got, c)
	}
}

// literal consumes lit if it comes next.
func (d *Decoder) literal(lit string) bool {
	d.skipSpace()
	if len(d.buf)-d.pos >= len(lit) && string(d.buf[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// Object reads an object of schema s. For each key it calls field with
// the key's index, and field must read the value. A null value is
// consumed here and counts as absent.
func (d *Decoder) Object(s *Schema, field func(i int) error) error {
	var present, set uint64
	next := 0
	err := d.Map(func(key []byte) error {
		i := s.index(key, next)
		next = i + 1
		if i < 0 {
			return &FieldError{Problem: "unknown", Field: string(key)}
		}
		if present&(1<<i) != 0 {
			return &FieldError{Problem: "duplicate", Field: s.names[i]}
		}
		present |= 1 << i
		if d.literal("null") {
			return nil
		}
		set |= 1 << i
		return field(i)
	})
	if err != nil {
		return err
	}
	if missing := s.required &^ set; missing != 0 {
		return &FieldError{Problem: "missing", Field: s.names[bits.TrailingZeros64(missing)]}
	}
	return nil
}

// Map reads an object with arbitrary keys. For each member it calls
// member with the unescaped key, valid until the next string is read,
// and member must read the value. Duplicate keys are the caller's to
// reject, since only it holds the keys seen.
func (d *Decoder) Map(member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.next() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.StringBytes()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch c := d.next(); c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		case 0:
			return d.errorf("unexpected end of line in object")
		default:
			return d.errorf("unexpected %q after object member", c)
		}
	}
}

// Array reads an array, calling elem with each element's index; elem
// must read the element.
func (d *Decoder) Array(elem func(i int) error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.next() == ']' {
		d.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch c := d.next(); c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		case 0:
			return d.errorf("unexpected end of line in array")
		default:
			return d.errorf("unexpected %q after array element", c)
		}
	}
}

// Bool reads true or false.
func (d *Decoder) Bool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errorf("want true or false")
}

// StringBytes reads a string value and returns its unescaped bytes,
// valid until the next string is read.
func (d *Decoder) StringBytes() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for {
		// Step over plain bytes with the position in a register.
		buf, i := d.buf, d.pos
		for i < len(buf) && plain[buf[i]] {
			i++
		}
		d.pos = i
		if i == len(buf) {
			return nil, d.errorf("unterminated string")
		}
		switch c := buf[i]; {
		case c == '"':
			d.pos++
			return buf[start:i], nil
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, d.errorf("control character %#02x in string", c)
		default:
			if err := d.skipRune(); err != nil {
				return nil, err
			}
		}
	}
}

// plain marks the bytes a string holds as they are: ASCII other than
// control characters, '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipRune steps over one multi-byte UTF-8 sequence.
func (d *Decoder) skipRune() error {
	r, size := utf8.DecodeRune(d.buf[d.pos:])
	if r == utf8.RuneError && size == 1 {
		return d.errorf("invalid UTF-8 in string")
	}
	d.pos += size
	return nil
}

// unescape finishes a string holding escapes into d.scratch; the bytes
// from start to d.pos are plain.
func (d *Decoder) unescape(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.buf[start:d.pos]...)
	defer func() { d.scratch = out[:0] }()
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			return out, nil
		case c < 0x20:
			return nil, d.errorf("control character %#02x in string", c)
		case c >= utf8.RuneSelf:
			from := d.pos
			if err := d.skipRune(); err != nil {
				return nil, err
			}
			out = append(out, d.buf[from:d.pos]...)
			continue
		case c != '\\':
			out = append(out, c)
			d.pos++
			continue
		}
		if d.pos+1 == len(d.buf) {
			break
		}
		e := d.buf[d.pos+1]
		d.pos += 2
		switch e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, err := d.hex4()
			if err != nil {
				return nil, err
			}
			if utf16.IsSurrogate(r) {
				lo := rune(-1)
				if len(d.buf)-d.pos >= 2 && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
					d.pos += 2
					if lo, err = d.hex4(); err != nil {
						return nil, err
					}
				}
				if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
					return nil, d.errorf("invalid surrogate pair in string")
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, d.errorf("invalid escape %q in string", e)
		}
	}
	return nil, d.errorf("unterminated string")
}

func (d *Decoder) hex4() (rune, error) {
	if len(d.buf)-d.pos < 4 {
		return 0, d.errorf("short \\u escape")
	}
	var r rune
	for _, c := range d.buf[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.errorf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r, nil
}

// digits consumes a run of decimal digits, accumulating their value
// while it fits; ok is false if it overflowed.
func (d *Decoder) digits() (v uint64, n int, ok bool) {
	ok = true
	buf, i := d.buf, d.pos
	for ; i < len(buf); i++ {
		c := buf[i] - '0'
		if c > 9 {
			break
		}
		if n++; n < 20 { // 19 digits always fit
			v = v*10 + uint64(c)
			continue
		}
		hi, lo := bits.Mul64(v, 10)
		lo, carry := bits.Add64(lo, uint64(c), 0)
		if hi != 0 || carry != 0 {
			ok = false
		}
		v = lo
	}
	d.pos = i
	return v, n, ok
}

// integer reads the digits of an integer literal.
func (d *Decoder) integer() (uint64, error) {
	start := d.pos
	v, n, ok := d.digits()
	switch {
	case n == 0:
		return 0, d.errorf("want an integer")
	case n > 1 && d.buf[start] == '0':
		return 0, d.errorf("leading zero in number")
	case !ok:
		return 0, d.errorf("integer out of range")
	}
	if d.pos < len(d.buf) {
		if c := d.buf[d.pos]; c == '.' || c == 'e' || c == 'E' {
			return 0, d.errorf("want an integer")
		}
	}
	return v, nil
}

// Uint reads a non-negative integer.
func (d *Decoder) Uint() (uint64, error) {
	d.skipSpace()
	return d.integer()
}

// Int reads an integer in the int64 range.
func (d *Decoder) Int() (int64, error) {
	neg := d.next() == '-'
	if neg {
		d.pos++
	}
	v, err := d.integer()
	switch {
	case err != nil:
		return 0, err
	case neg && v <= 1<<63:
		return -int64(v), nil
	case !neg && v <= math.MaxInt64:
		return int64(v), nil
	}
	return 0, d.errorf("integer out of range")
}

// Float reads a number, with JSON's grammar and strconv.ParseFloat's
// value.
func (d *Decoder) Float() (float64, error) {
	d.skipSpace()
	start := d.pos
	if d.pos < len(d.buf) && d.buf[d.pos] == '-' {
		d.pos++
	}
	intStart := d.pos
	switch _, n, _ := d.digits(); {
	case n == 0:
		return 0, d.errorf("want a number")
	case n > 1 && d.buf[intStart] == '0':
		return 0, d.errorf("leading zero in number")
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if _, n, _ := d.digits(); n == 0 {
			return 0, d.errorf("want a digit after the decimal point")
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if _, n, _ := d.digits(); n == 0 {
			return 0, d.errorf("want a digit in the exponent")
		}
	}
	f, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 64)
	if err != nil {
		d.pos = start
		return 0, d.errorf("number out of range")
	}
	return f, nil
}

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string escaped exactly as
// json.Encoder escapes it: '"' and '\\' backslashed; control
// characters as \b \f \n \r \t or a \u escape; '<', '>', '&', U+2028
// and U+2029 as \u escapes; each byte of invalid UTF-8 as the \u
// escape of U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
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
