package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// awkward holds strings that exercise every escaping rule.
var awkward = []string{
	"", "cycles", "branch-miss:uk", `quote"d`, `back\slash`, "<b>&amp;</b>",
	"tab\tnew\nline\rcr", "bell\a esc\x1b nul\x00 del\x7f", "\b\f",
	"héllo wörld", "日本語", "emoji 😀", "sep\xe2\x80\xa8par\xe2\x80\xa9",
	"bad \xff utf8", "\xc3", "trunc \xe6\x97", "\xef\xbf\xbd literal",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	all := append([]string(nil), awkward...)
	for b := 0; b < 256; b++ {
		all = append(all, string([]byte{'x', byte(b), 'y'}))
	}
	for _, s := range all {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	var d Decoder
	for _, s := range awkward {
		line := AppendString(nil, s)
		d.Reset(line)
		got, err := d.string()
		if err != nil {
			t.Errorf("String(%s): %v", line, err)
			continue
		}
		var want string
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("String(%s) = %q, encoding/json reads %q", line, got, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	var d Decoder
	for in, want := range map[string]string{
		`"a\"b\\c\/d"`:                         `a"b\c/d`,
		`"\b\f\n\r\t"`:                         "\b\f\n\r\t",
		u(`"A^u00e9^u65e5"`):                   "Aé日",
		u(`"^ud83d^ude00 x"`):                  "😀 x",
		u(`"plain ^u0000 nul"`):                "plain \x00 nul",
		u(`"^u65e5^u672c ^u0022quoted^u0022"`): `日本 "quoted"`,
	} {
		d.Reset([]byte(in))
		got, err := d.string()
		if err != nil || got != want {
			t.Errorf("String(%s) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{
		`"unterminated`, `"bad \x escape"`, u(`"^u12"`), u(`"^u12g4"`),
		u(`"lone ^ud83d high"`), u(`"lone ^ude00 low"`), u(`"^ud83dA"`), u(`"^ud83d ^ude00"`),
		"\"raw \x01 control\"", "\"bad \xff utf8\"", `"trailing \`, `nope`,
	} {
		d.Reset([]byte(in))
		if got, err := d.string(); !isSyntax(err) {
			t.Errorf("String(%s) = %q, %v; want *SyntaxError", in, got, err)
		}
	}
}

// u spells JSON's backslash-u escapes as ^u, so the literals here stay
// readable.
func u(s string) string { return strings.ReplaceAll(s, "^u", `\u`) }

func (d *Decoder) string() (string, error) {
	b, err := d.StringBytes()
	return string(b), err
}

func isSyntax(err error) bool {
	var se *SyntaxError
	return errors.As(err, &se)
}

func TestIntegers(t *testing.T) {
	var d Decoder
	for in, want := range map[string]uint64{
		"0": 0, "7": 7, " 42": 42, "18446744073709551615": math.MaxUint64,
	} {
		d.Reset([]byte(in))
		if got, err := d.Uint(); err != nil || got != want {
			t.Errorf("Uint(%s) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "-1", "01", "1.0", "1e3", "18446744073709551616", "99999999999999999999", "x"} {
		d.Reset([]byte(in))
		if got, err := d.Uint(); !isSyntax(err) {
			t.Errorf("Uint(%s) = %d, %v; want *SyntaxError", in, got, err)
		}
	}
	for in, want := range map[string]int64{
		"0": 0, "-0": 0, "-5": -5, "9223372036854775807": math.MaxInt64, "-9223372036854775808": math.MinInt64,
	} {
		d.Reset([]byte(in))
		if got, err := d.Int(); err != nil || got != want {
			t.Errorf("Int(%s) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"-", "--1", "- 1", "9223372036854775808", "-9223372036854775809", "-01", "2.5"} {
		d.Reset([]byte(in))
		if got, err := d.Int(); !isSyntax(err) {
			t.Errorf("Int(%s) = %d, %v; want *SyntaxError", in, got, err)
		}
	}
}

func TestFloatMatchesParseFloat(t *testing.T) {
	ins := []string{
		"0", "-0", "0.000000", "-0.000000", "1.5", "2.000000", "0.1", "0.123457",
		"123456789012345", "1234567890123456", "0.1234567890123456789", "1e3", "1E-3",
		"-2.5e+10", "1e308", "4.9e-324", "1e-400", "0.0078125", "9007199254740993",
		"179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.000000",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		ins = append(ins, strconv.FormatFloat(v, 'f', rng.Intn(12), 64), strconv.FormatFloat(v, 'g', -1, 64))
		ins = append(ins, strconv.FormatFloat(rng.Float64()*1e6, 'f', 6, 64))
	}
	var d Decoder
	for _, in := range ins {
		want, err := strconv.ParseFloat(in, 64)
		if err != nil {
			t.Fatal(err)
		}
		d.Reset([]byte(in))
		got, err := d.Float()
		if err != nil || got != want || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("Float(%s) = %v, %v; want %v", in, got, err, want)
		}
		if err := d.End(); err != nil {
			t.Errorf("Float(%s) left bytes: %v", in, err)
		}
	}
	for _, in := range []string{"", "-", ".5", "1.", "01", "1e", "1e+", "+1", "1e400", "-1e400", "NaN", "Inf"} {
		d.Reset([]byte(in))
		if got, err := d.Float(); !isSyntax(err) {
			t.Errorf("Float(%s) = %v, %v; want *SyntaxError", in, got, err)
		}
	}
}

var pointSchema = NewSchema([]string{"x", "y"}, "label")

type point struct {
	X, Y  int64
	Label string
}

func parsePoint(line string) (point, error) {
	var d Decoder
	var p point
	d.Reset([]byte(line))
	err := d.Object(pointSchema, func(i int) error {
		var err error
		switch i {
		case 0:
			p.X, err = d.Int()
		case 1:
			p.Y, err = d.Int()
		case 2:
			p.Label, err = d.string()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return p, err
}

func TestObjectSchema(t *testing.T) {
	for line, want := range map[string]point{
		`{"x":1,"y":2}`:                          {X: 1, Y: 2},
		` { "y" : -2 , "x" : 1 , "label":"a" } `: {X: 1, Y: -2, Label: "a"},
		`{"x":1,"y":2,"label":null}`:             {X: 1, Y: 2},
		u(`{"^u0078":1,"y":2}`):                  {X: 1, Y: 2},
		"{\"x\":1,\"y\":2}\r":                    {X: 1, Y: 2},
	} {
		got, err := parsePoint(line)
		if err != nil || got != want {
			t.Errorf("parse %s = %+v, %v; want %+v", line, got, err, want)
		}
	}
	for line, want := range map[string]FieldError{
		`{"x":1,"y":2,"z":3}`:             {"unknown", "z"},
		`{"X":1,"y":2}`:                   {"unknown", "X"},
		`{"x":1,"x":1,"y":2}`:             {"duplicate", "x"},
		`{"x":null,"x":1,"y":2}`:          {"duplicate", "x"},
		`{"y":2}`:                         {"missing", "x"},
		`{"x":1}`:                         {"missing", "y"},
		`{"x":null,"y":2}`:                {"missing", "x"},
		`{}`:                              {"missing", "x"},
		`{"x":1,"label":"a","y":2,"q":1}`: {"unknown", "q"},
	} {
		_, err := parsePoint(line)
		var fe *FieldError
		if !errors.As(err, &fe) || *fe != want {
			t.Errorf("parse %s err = %v, want %+v", line, err, want)
		}
	}
	for _, line := range []string{
		``, `   `, `[]`, `{`, `{"x":1,"y":2`, `{"x":1,"y":2,}`, `{"x":1 "y":2}`, `{"x":1,"y":2} junk`,
		`{"x":1,"y":2}{"x":3}`, `{"x":1,"y":2}}`, `{x:1}`, `{"x":1,"y":nul}`, `{"x":1,"y":2,"label":nullx}`,
	} {
		if got, err := parsePoint(line); !isSyntax(err) {
			t.Errorf("parse %q = %+v, %v; want *SyntaxError", line, got, err)
		}
	}
}

func TestArrayAndMap(t *testing.T) {
	var d Decoder
	d.Reset([]byte(`[ {"a":1, "b":-2}, {}, {"c":3} ]`))
	var keys []string
	var sum int64
	err := d.Array(func(i int) error {
		return d.Map(func(key []byte) error {
			keys = append(keys, string(key))
			v, err := d.Int()
			sum += v
			return err
		})
	})
	if err != nil || strings.Join(keys, ",") != "a,b,c" || sum != 2 {
		t.Errorf("array of maps: keys %v sum %d err %v", keys, sum, err)
	}
	for _, in := range []string{`[1,]`, `[1 2]`, `[`, `{"a":1,}`} {
		d.Reset([]byte(in))
		err := d.Array(func(int) error { _, err := d.Int(); return err })
		if in[0] == '{' {
			d.Reset([]byte(in))
			err = d.Map(func([]byte) error { _, err := d.Int(); return err })
		}
		if !isSyntax(err) {
			t.Errorf("%s: err %v, want *SyntaxError", in, err)
		}
	}
}

func TestReadLines(t *testing.T) {
	const in = "a\n\nb\r\nc"
	var got []string
	n, err := ReadLines(strings.NewReader(in), func(b []byte) error {
		got = append(got, string(b))
		return nil
	})
	if n != 0 || err != nil || strings.Join(got, " ") != "a b c" {
		t.Errorf("lines %q, line %d, err %v", got, n, err)
	}
	// The failing line is named by its number, blank lines counted.
	stop := errors.New("stop")
	rejectB := func(b []byte) error {
		if string(b) == "b" {
			return stop
		}
		return nil
	}
	if n, err := ReadLines(strings.NewReader(in), rejectB); n != 3 || err != stop {
		t.Errorf("callback error at line %d = %v, want it returned as is at line 3", n, err)
	}
	// So is a line over the cap, which the reader cannot deliver.
	long := "a\n\n\n" + strings.Repeat("x", maxLine+1)
	if n, err := ReadLines(strings.NewReader(long), func([]byte) error { return nil }); n != 4 || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line: line %d, err %v; want line 4, bufio.ErrTooLong", n, err)
	}
}
