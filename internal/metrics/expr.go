// Package metrics is the derived-metric engine: a small expression
// language over event names, evaluated per event frame. Expressions
// are parsed once into an AST and evaluated many times — once per
// frame or per thread-total — so campaign-scale rendering never
// re-parses.
//
// Grammar (precedence low to high):
//
//	expr   := term (('+' | '-') term)*
//	term   := unary (('*' | '/') unary)*
//	unary  := '-' unary | atom
//	atom   := number | ident | '(' expr ')' | ('min'|'max') '(' expr (',' expr)+ ')'
//
// Identifiers name frame samples: the event name with '_' for '-'
// (expressions can't contain the minus sign in names), plus an
// optional ring suffix — "cycles" is the user ring, "cycles:k" kernel
// only, "cycles:uk" both. Division by zero yields 0, never NaN or Inf:
// a rate over nothing measured is "nothing", which keeps downstream
// renders and JSON byte-stable.
package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Expr is a parsed metric expression, ready for repeated evaluation.
type Expr struct {
	root node
}

type node interface {
	eval(env map[string]float64) (float64, error)
	idents(into map[string]bool)
}

type numNode float64

func (n numNode) eval(map[string]float64) (float64, error) { return float64(n), nil }
func (n numNode) idents(map[string]bool)                   {}

type identNode string

func (n identNode) eval(env map[string]float64) (float64, error) {
	v, ok := env[string(n)]
	if !ok {
		return 0, fmt.Errorf("metrics: unknown event %q", string(n))
	}
	return v, nil
}
func (n identNode) idents(into map[string]bool) { into[string(n)] = true }

type binNode struct {
	op   byte
	l, r node
}

func (n *binNode) eval(env map[string]float64) (float64, error) {
	l, err := n.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := n.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	default: // '/'
		if r == 0 {
			return 0, nil // defined div-by-zero policy: rate over nothing is 0
		}
		return l / r, nil
	}
}
func (n *binNode) idents(into map[string]bool) { n.l.idents(into); n.r.idents(into) }

type negNode struct{ x node }

func (n *negNode) eval(env map[string]float64) (float64, error) {
	v, err := n.x.eval(env)
	return -v, err
}
func (n *negNode) idents(into map[string]bool) { n.x.idents(into) }

type callNode struct {
	min  bool
	args []node
}

func (n *callNode) eval(env map[string]float64) (float64, error) {
	best := 0.0
	for i, a := range n.args {
		v, err := a.eval(env)
		if err != nil {
			return 0, err
		}
		if i == 0 || (n.min && v < best) || (!n.min && v > best) {
			best = v
		}
	}
	return best, nil
}
func (n *callNode) idents(into map[string]bool) {
	for _, a := range n.args {
		a.idents(into)
	}
}

// Parse compiles src into an Expr or reports the first syntax error.
func Parse(src string) (*Expr, error) {
	p := &parser{toks: lex(src)}
	root, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("metrics: parse %q: %w", src, err)
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return nil, fmt.Errorf("metrics: parse %q: unexpected %q", src, tok.text)
	}
	return &Expr{root: root}, nil
}

// MustParse is Parse for the built-in definitions, where a syntax
// error is a bug in this package.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval evaluates the expression over an environment of sample values.
// An identifier missing from env is an error — a metric must never
// silently read 0 for an event that was not measured. Non-finite
// results collapse to 0 under the same policy as division by zero.
func (e *Expr) Eval(env map[string]float64) (float64, error) {
	v, err := e.root.eval(env)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nil
	}
	return v, nil
}

// Idents returns the sample names the expression reads, sorted-free
// (callers sort if they need canonical order).
func (e *Expr) Idents() []string {
	set := make(map[string]bool)
	e.root.idents(set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// lexing

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNum
	tokIdent
	tokOp     // + - * / ( ) ,
	tokMinMax // min / max keyword
	tokErr
)

type token struct {
	kind tokKind
	text string
	num  float64
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == ':' || (c >= '0' && c <= '9')
}

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case strings.IndexByte("+-*/(),", c) >= 0:
			toks = append(toks, token{kind: tokOp, text: string(c)})
			i++
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' ||
				(src[j] == '-' && j > i && src[j-1] == 'e')) {
				j++
			}
			n, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return append(toks, token{kind: tokErr, text: src[i:j]})
			}
			toks = append(toks, token{kind: tokNum, text: src[i:j], num: n})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			if word == "min" || word == "max" {
				toks = append(toks, token{kind: tokMinMax, text: word})
			} else {
				// Event names use '-', which the grammar reserves for
				// subtraction; identifiers spell it '_'.
				toks = append(toks, token{kind: tokIdent, text: strings.ReplaceAll(word, "_", "-")})
			}
			i = j
		default:
			return append(toks, token{kind: tokErr, text: string(c)})
		}
	}
	return append(toks, token{kind: tokEOF})
}

// parsing

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(op string) error {
	if t := p.next(); t.kind != tokOp || t.text != op {
		return fmt.Errorf("expected %q, got %q", op, t.text)
	}
	return nil
}

func (p *parser) parseExpr() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: t.text[0], l: l, r: r}
	}
}

func (p *parser) parseTerm() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: t.text[0], l: l, r: r}
	}
}

func (p *parser) parseUnary() (node, error) {
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negNode{x: x}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (node, error) {
	t := p.next()
	switch t.kind {
	case tokNum:
		return numNode(t.num), nil
	case tokIdent:
		return identNode(t.text), nil
	case tokMinMax:
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var args []node
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			nt := p.next()
			if nt.kind == tokOp && nt.text == "," {
				continue
			}
			if nt.kind == tokOp && nt.text == ")" {
				break
			}
			return nil, fmt.Errorf("expected ',' or ')' in %s(), got %q", t.text, nt.text)
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("%s() needs at least 2 arguments", t.text)
		}
		return &callNode{min: t.text == "min", args: args}, nil
	case tokOp:
		if t.text == "(" {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
		return nil, fmt.Errorf("unexpected %q", t.text)
	case tokErr:
		return nil, fmt.Errorf("bad token %q", t.text)
	default:
		return nil, fmt.Errorf("unexpected end of expression")
	}
}
