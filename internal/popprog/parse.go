package popprog

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse reads a population program from its text format. The syntax mirrors
// the paper's pseudocode in ASCII:
//
//	# φ(x) ⟺ 4 ≤ x < 7 (Figure 1)
//	program figure1
//	registers x, y, z
//
//	proc Main {
//	  of false
//	  while not Test4() { Clean() }
//	  of true
//	  while not Test7() { Clean() }
//	  of false
//	  while true { Clean() }
//	}
//
//	bool proc Test4 {
//	  repeat 4 {
//	    if detect x { move x -> y } else { return false }
//	  }
//	  return true
//	}
//
//	proc Clean {
//	  if detect z { restart }
//	  swap x, y
//	  while detect y { move y -> x }
//	}
//
// Statements: `move A -> B`, `swap A, B`, `of true|false`, `restart`,
// `return [true|false]`, `Name()` (procedure call), `if C { } [else { }]`,
// `while C { }`, and the for-loop macro `repeat N { }`.
// Conditions: `detect R`, `Name()`, `true`, `not C`, `C and C`, `C or C`,
// and parentheses. `and` binds tighter than `or`.
func Parse(src string) (*Program, error) {
	toks, err := lexProgram(src)
	if err != nil {
		return nil, err
	}
	p := &progParser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, fmt.Errorf("popprog: line %d: %w", p.line(), err)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

type progToken struct {
	text string
	line int
	kind int // 0 word, 1 symbol, 2 number
}

const (
	tokWord = iota
	tokSym
	tokNum
)

func lexProgram(src string) ([]progToken, error) {
	var toks []progToken
	line := 1
	runes := []rune(src)
	for i := 0; i < len(runes); {
		r := runes[i]
		switch {
		case r == '\n':
			line++
			i++
		case unicode.IsSpace(r):
			i++
		case r == '#':
			for i < len(runes) && runes[i] != '\n' {
				i++
			}
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(runes) && (unicode.IsLetter(runes[j]) || unicode.IsDigit(runes[j]) || runes[j] == '_') {
				j++
			}
			toks = append(toks, progToken{string(runes[i:j]), line, tokWord})
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(runes) && unicode.IsDigit(runes[j]) {
				j++
			}
			toks = append(toks, progToken{string(runes[i:j]), line, tokNum})
			i = j
		case r == '-' && i+1 < len(runes) && runes[i+1] == '>':
			toks = append(toks, progToken{"->", line, tokSym})
			i += 2
		case strings.ContainsRune("{}(),", r):
			toks = append(toks, progToken{string(r), line, tokSym})
			i++
		default:
			return nil, fmt.Errorf("popprog: line %d: unexpected character %q", line, r)
		}
	}
	toks = append(toks, progToken{"", line, tokSym}) // EOF
	return toks, nil
}

type progParser struct {
	toks []progToken
	pos  int

	registers []string
	regIdx    map[string]int
	procIdx   map[string]int
	procs     []*Procedure
}

func (p *progParser) line() int {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].line
	}
	return 0
}

func (p *progParser) peek() progToken { return p.toks[p.pos] }

func (p *progParser) next() progToken {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *progParser) accept(text string) bool {
	if p.peek().text == text {
		p.next()
		return true
	}
	return false
}

func (p *progParser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("expected %q, got %q", text, p.peek().text)
	}
	return nil
}

func (p *progParser) atEOF() bool { return p.peek().text == "" }

func (p *progParser) parseProgram() (*Program, error) {
	p.regIdx = make(map[string]int)
	p.procIdx = make(map[string]int)

	name := "program"
	if p.accept("program") {
		t := p.next()
		if t.kind != tokWord {
			return nil, fmt.Errorf("expected program name, got %q", t.text)
		}
		name = t.text
	}
	if err := p.expect("registers"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokWord {
			return nil, fmt.Errorf("expected register name, got %q", t.text)
		}
		if _, dup := p.regIdx[t.text]; dup {
			return nil, fmt.Errorf("duplicate register %q", t.text)
		}
		p.regIdx[t.text] = len(p.registers)
		p.registers = append(p.registers, t.text)
		if !p.accept(",") {
			break
		}
	}

	// Pre-scan the remaining tokens for procedure declarations so that
	// calls may reference procedures declared later in the file.
	for i := p.pos; i < len(p.toks)-1; i++ {
		if p.toks[i].text == "proc" && p.toks[i+1].kind == tokWord {
			name := p.toks[i+1].text
			if _, dup := p.procIdx[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate procedure %q",
					p.toks[i+1].line, name)
			}
			p.procIdx[name] = len(p.procs)
			p.procs = append(p.procs, &Procedure{Name: name})
		}
	}

	for !p.atEOF() {
		if err := p.parseProc(); err != nil {
			return nil, err
		}
	}

	return &Program{
		Name:       name,
		Registers:  p.registers,
		Procedures: p.procs,
	}, nil
}

func (p *progParser) parseProc() error {
	returns := false
	if p.accept("bool") {
		returns = true
	}
	if err := p.expect("proc"); err != nil {
		return err
	}
	t := p.next()
	if t.kind != tokWord {
		return fmt.Errorf("expected procedure name, got %q", t.text)
	}
	proc := p.procs[p.procIdx[t.text]] // pre-declared by the prescan
	if proc.Body != nil {
		return fmt.Errorf("duplicate procedure %q", t.text)
	}
	proc.Returns = returns
	body, err := p.parseBlock()
	if err != nil {
		return fmt.Errorf("in procedure %q: %w", t.text, err)
	}
	if body == nil {
		body = []Stmt{} // mark as parsed even when empty
	}
	proc.Body = body
	return nil
}

func (p *progParser) parseBlock() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("}") {
		if p.atEOF() {
			return nil, fmt.Errorf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

func (p *progParser) reg(name string) (int, error) {
	idx, ok := p.regIdx[name]
	if !ok {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	return idx, nil
}

// parseStmt returns a slice because `repeat` expands into several
// statements (the for-loop macro of §4).
func (p *progParser) parseStmt() ([]Stmt, error) {
	t := p.next()
	switch t.text {
	case "move":
		from, err := p.reg(p.next().text)
		if err != nil {
			return nil, err
		}
		if err := p.expect("->"); err != nil {
			return nil, err
		}
		to, err := p.reg(p.next().text)
		if err != nil {
			return nil, err
		}
		return []Stmt{Move{From: from, To: to}}, nil
	case "swap":
		a, err := p.reg(p.next().text)
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		b, err := p.reg(p.next().text)
		if err != nil {
			return nil, err
		}
		return []Stmt{Swap{A: a, B: b}}, nil
	case "of":
		v, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		return []Stmt{SetOF{Value: v}}, nil
	case "restart":
		return []Stmt{Restart{}}, nil
	case "return":
		switch p.peek().text {
		case "true", "false":
			v, _ := p.parseBool()
			return []Stmt{Return{HasValue: true, Value: v}}, nil
		default:
			return []Stmt{Return{}}, nil
		}
	case "if":
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var elseStmts []Stmt
		if p.accept("else") {
			elseStmts, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
		return []Stmt{If{Cond: cond, Then: then, Else: elseStmts}}, nil
	case "while":
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return []Stmt{While{Cond: cond, Body: body}}, nil
	case "repeat":
		nTok := p.next()
		if nTok.kind != tokNum {
			return nil, fmt.Errorf("expected repeat count, got %q", nTok.text)
		}
		n := 0
		for _, d := range nTok.text {
			n = n*10 + int(d-'0')
		}
		if n < 1 || n > 1_000_000 {
			return nil, fmt.Errorf("repeat count %d out of range", n)
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return Repeat(n, func(int) []Stmt { return cloneStmts(body) }), nil
	default:
		if t.kind == tokWord && p.peek().text == "(" {
			// Procedure call statement.
			p.next() // (
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			idx, ok := p.procIdx[t.text]
			if !ok {
				return nil, fmt.Errorf("unknown procedure %q", t.text)
			}
			return []Stmt{Call{Proc: idx}}, nil
		}
		return nil, fmt.Errorf("unexpected %q", t.text)
	}
}

func (p *progParser) parseBool() (bool, error) {
	t := p.next()
	switch t.text {
	case "true":
		return true, nil
	case "false":
		return false, nil
	default:
		return false, fmt.Errorf("expected true/false, got %q", t.text)
	}
}

// Condition grammar: or-expr := and-expr { "or" and-expr };
// and-expr := atom { "and" atom }; atom := "not" atom | "(" or ")" |
// "true" | "detect" reg | Name "(" ")".
func (p *progParser) parseCond() (Cond, error) {
	left, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		right, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		left = Or{L: left, R: right}
	}
	return left, nil
}

func (p *progParser) parseCondAnd() (Cond, error) {
	left, err := p.parseCondAtom()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		right, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		left = And{L: left, R: right}
	}
	return left, nil
}

func (p *progParser) parseCondAtom() (Cond, error) {
	t := p.next()
	switch t.text {
	case "not":
		inner, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		return Not{C: inner}, nil
	case "(":
		inner, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case "true":
		return True{}, nil
	case "detect":
		idx, err := p.reg(p.next().text)
		if err != nil {
			return nil, err
		}
		return Detect{Reg: idx}, nil
	default:
		if t.kind == tokWord && p.accept("(") {
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			idx, ok := p.procIdx[t.text]
			if !ok {
				return nil, fmt.Errorf("unknown procedure %q in condition", t.text)
			}
			return CallCond{Proc: idx}, nil
		}
		return nil, fmt.Errorf("unexpected %q in condition", t.text)
	}
}

func cloneStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	copy(out, stmts)
	return out
}
