package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual form produced by Module.String back into a
// Module, so partitioned binaries dumped by offloadc can be inspected,
// edited and re-executed. The returned module is unlowered (offsets,
// strides and access layouts must be recomputed with Lower) and renumbered.
func Parse(text string) (*Module, error) {
	p := &parser{
		structs: make(map[string]*StructType),
		funcs:   make(map[string]*Func),
		globals: make(map[string]*Global),
	}
	lines := strings.Split(text, "\n")

	// Pass 1: module header, types, globals, function headers, declares.
	inBody := false
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || inBody && line != "}":
			if line == "" {
				continue
			}
		case strings.HasPrefix(line, "module "):
			if err := p.parseModuleHeader(line); err != nil {
				return nil, lineErr(i, err)
			}
		case strings.HasPrefix(line, "type %"):
			if err := p.needModule(); err != nil {
				return nil, lineErr(i, err)
			}
			if err := p.parseTypeDef(line); err != nil {
				return nil, lineErr(i, err)
			}
		case strings.HasPrefix(line, "declare @"):
			if err := p.needModule(); err != nil {
				return nil, lineErr(i, err)
			}
			if err := p.parseDeclare(line); err != nil {
				return nil, lineErr(i, err)
			}
		case strings.HasPrefix(line, "func @"):
			if err := p.needModule(); err != nil {
				return nil, lineErr(i, err)
			}
			if err := p.parseFuncHeader(line); err != nil {
				return nil, lineErr(i, err)
			}
			inBody = true
		case line == "}":
			inBody = false
		}
	}
	if p.mod == nil {
		return nil, fmt.Errorf("ir: parse: no module header")
	}
	// Globals need function references resolved, so they parse after the
	// function headers.
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "global @") {
			if err := p.parseGlobal(line); err != nil {
				return nil, lineErr(i, err)
			}
		}
	}

	// Pass 2: function bodies.
	var cur *bodyState
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "func @"):
			if cur != nil {
				return nil, lineErr(i, fmt.Errorf("@%s has no closing brace", cur.fn.Nam))
			}
			name := line[len("func @"):strings.IndexByte(line, '(')]
			cur = &bodyState{
				p:      p,
				fn:     p.funcs[name],
				blocks: make(map[string]*Block),
				vals:   make(map[string]Value),
			}
			for _, prm := range cur.fn.Params {
				cur.vals["%"+prm.Nam] = prm
			}
		case cur != nil && line == "}":
			if err := cur.finish(); err != nil {
				return nil, lineErr(i, err)
			}
			cur = nil
		case cur != nil && strings.HasSuffix(line, ":") && !strings.Contains(line, " "):
			if err := cur.enterBlock(strings.TrimSuffix(line, ":")); err != nil {
				return nil, lineErr(i, err)
			}
		case cur != nil && line != "":
			if err := cur.parseInstr(line); err != nil {
				return nil, lineErr(i, err)
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("ir: parse: @%s has no closing brace", cur.fn.Nam)
	}
	for _, f := range p.mod.Funcs {
		f.Renumber()
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parse: %w", err)
	}
	return p.mod, nil
}

func lineErr(i int, err error) error {
	return fmt.Errorf("ir: parse: line %d: %w", i+1, err)
}

type parser struct {
	mod     *Module
	structs map[string]*StructType
	funcs   map[string]*Func
	globals map[string]*Global
}

func (p *parser) needModule() error {
	if p.mod == nil {
		return fmt.Errorf("declaration before the module header")
	}
	return nil
}

func (p *parser) parseModuleHeader(line string) error {
	// module NAME (stack 0xNNN[, unified])
	rest := strings.TrimPrefix(line, "module ")
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return fmt.Errorf("malformed module header")
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return fmt.Errorf("module without a name")
	}
	p.mod = NewModule(name)
	attrs := strings.Trim(rest[open:], "()")
	for _, a := range strings.Split(attrs, ",") {
		a = strings.TrimSpace(a)
		switch {
		case strings.HasPrefix(a, "stack 0x"):
			v, err := strconv.ParseUint(strings.TrimPrefix(a, "stack 0x"), 16, 32)
			if err != nil {
				return err
			}
			p.mod.StackBase = uint32(v)
		case a == "unified":
			p.mod.Unified = true
		}
	}
	return nil
}

func (p *parser) parseTypeDef(line string) error {
	// type %Name {field T, field T}
	rest := strings.TrimPrefix(line, "type %")
	brace := strings.IndexByte(rest, '{')
	if brace < 0 || !strings.HasSuffix(rest, "}") {
		return fmt.Errorf("malformed type definition")
	}
	name := strings.TrimSpace(rest[:brace])
	st := &StructType{Name: name}
	p.structs[name] = st // register first: fields may self-reference via pointers
	body := strings.TrimSuffix(rest[brace+1:], "}")
	if strings.TrimSpace(body) != "" {
		for _, f := range splitTop(body, ',') {
			f = strings.TrimSpace(f)
			sp := strings.IndexByte(f, ' ')
			if sp < 0 {
				return fmt.Errorf("malformed field %q", f)
			}
			ft, err := p.parseType(strings.TrimSpace(f[sp+1:]))
			if err != nil {
				return err
			}
			st.Fields = append(st.Fields, StructField{Name: f[:sp], Type: ft})
		}
	}
	p.mod.Structs = append(p.mod.Structs, st)
	return nil
}

func (p *parser) parseDeclare(line string) error {
	// declare @name func(T, T) RET
	rest := strings.TrimPrefix(line, "declare @")
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("malformed declare")
	}
	name := rest[:sp]
	sig, err := p.parseType(strings.TrimSpace(rest[sp+1:]))
	if err != nil {
		return err
	}
	ft, ok := sig.(*FuncType)
	if !ok {
		return fmt.Errorf("declare of non-function type %s", sig)
	}
	kind, ok := externKindByName(name)
	if !ok {
		kind = ExternUnknown
	}
	f := &Func{Nam: name, Sig: ft, Extern: kind, Variadic: true}
	p.funcs[name] = f
	p.mod.Funcs = append(p.mod.Funcs, f)
	return nil
}

var externNames map[string]ExternKind

func externKindByName(name string) (ExternKind, bool) {
	if externNames == nil {
		externNames = make(map[string]ExternKind)
		for k := ExternMalloc; k <= ExternFptrToM; k++ {
			externNames[k.String()] = k
		}
	}
	k, ok := externNames[name]
	return k, ok
}

func (p *parser) parseFuncHeader(line string) error {
	// func @name(%p T, ...) RET [task(N)] {
	rest := strings.TrimPrefix(line, "func @")
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return fmt.Errorf("malformed func header")
	}
	name := rest[:open]
	if name == "" {
		return fmt.Errorf("function without a name")
	}
	if p.funcs[name] != nil {
		return fmt.Errorf("duplicate function @%s", name)
	}
	close := matchParen(rest, open)
	if close < 0 {
		return fmt.Errorf("unbalanced parameters")
	}
	if !strings.HasSuffix(strings.TrimSpace(rest), "{") {
		return fmt.Errorf("function header must end with '{'")
	}
	f := &Func{Nam: name, Sig: &FuncType{}}
	params := rest[open+1 : close]
	if strings.TrimSpace(params) != "" {
		for i, prm := range splitTop(params, ',') {
			prm = strings.TrimSpace(prm)
			if !strings.HasPrefix(prm, "%") {
				return fmt.Errorf("malformed parameter %q", prm)
			}
			sp := strings.IndexByte(prm, ' ')
			if sp < 0 {
				return fmt.Errorf("parameter %q missing type", prm)
			}
			t, err := p.parseType(strings.TrimSpace(prm[sp+1:]))
			if err != nil {
				return err
			}
			f.Params = append(f.Params, &Param{Nam: prm[1:sp], Typ: t, Index: i})
			f.Sig.Params = append(f.Sig.Params, t)
		}
	}
	tail := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest[close+1:]), "{"))
	if idx := strings.Index(tail, "task("); idx >= 0 {
		n, err := strconv.Atoi(strings.TrimSuffix(tail[idx+5:], ")"))
		if err != nil {
			return err
		}
		f.TaskID = n
		tail = strings.TrimSpace(tail[:idx])
	}
	ret, err := p.parseType(tail)
	if err != nil {
		return err
	}
	f.Sig.Ret = ret
	p.funcs[name] = f
	p.mod.Funcs = append(p.mod.Funcs, f)
	return nil
}

func (p *parser) parseGlobal(line string) error {
	// global @name TYPE [uva(0xN)] [= init]
	rest := strings.TrimPrefix(line, "global @")
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("malformed global")
	}
	g := &Global{Nam: rest[:sp]}
	rest = strings.TrimSpace(rest[sp+1:])

	var initPart string
	if eq := strings.Index(rest, " = "); eq >= 0 {
		initPart = strings.TrimSpace(rest[eq+3:])
		rest = strings.TrimSpace(rest[:eq])
	}
	if idx := strings.Index(rest, " uva(0x"); idx >= 0 {
		addr, err := strconv.ParseUint(strings.TrimSuffix(rest[idx+7:], ")"), 16, 32)
		if err != nil {
			return err
		}
		g.Home, g.UVAAddr = HomeUVA, uint32(addr)
		rest = strings.TrimSpace(rest[:idx])
	}
	t, err := p.parseType(rest)
	if err != nil {
		return err
	}
	g.Elem = t

	switch {
	case initPart == "":
	case strings.HasPrefix(initPart, `"`):
		s, err := strconv.Unquote(initPart)
		if err != nil {
			return fmt.Errorf("bad string initializer: %w", err)
		}
		g.InitBytes = []byte(s)
	case strings.HasPrefix(initPart, "["):
		body := strings.TrimSuffix(strings.TrimPrefix(initPart, "["), "]")
		for _, ent := range splitTop(body, ',') {
			v, err := p.parseOperand(strings.TrimSpace(ent), nil)
			if err != nil {
				return err
			}
			g.Init = append(g.Init, v)
		}
	default:
		return fmt.Errorf("unrecognized initializer %q", initPart)
	}
	p.globals[g.Nam] = g
	p.mod.Globals = append(p.mod.Globals, g)
	return nil
}

// parseType parses a type expression.
func (p *parser) parseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "void":
		return Void, nil
	case s == "i1":
		return I1, nil
	case s == "i8":
		return I8, nil
	case s == "i16":
		return I16, nil
	case s == "i32":
		return I32, nil
	case s == "i64":
		return I64, nil
	case s == "f32":
		return F32, nil
	case s == "f64":
		return F64, nil
	case strings.HasPrefix(s, "*"):
		el, err := p.parseType(s[1:])
		if err != nil {
			return nil, err
		}
		return Ptr(el), nil
	case strings.HasPrefix(s, "["):
		close := strings.IndexByte(s, ']')
		if close < 0 {
			return nil, fmt.Errorf("unclosed array type %q", s)
		}
		n, err := strconv.Atoi(s[1:close])
		if err != nil {
			return nil, err
		}
		el, err := p.parseType(s[close+1:])
		if err != nil {
			return nil, err
		}
		return Array(el, n), nil
	case strings.HasPrefix(s, "%"):
		st, ok := p.structs[s[1:]]
		if !ok {
			return nil, fmt.Errorf("unknown struct type %s", s)
		}
		return st, nil
	case strings.HasPrefix(s, "func("):
		close := matchParen(s, 4)
		if close < 0 {
			return nil, fmt.Errorf("unbalanced func type %q", s)
		}
		ft := &FuncType{}
		args := s[5:close]
		if strings.TrimSpace(args) != "" {
			for _, a := range splitTop(args, ',') {
				t, err := p.parseType(a)
				if err != nil {
					return nil, err
				}
				ft.Params = append(ft.Params, t)
			}
		}
		ret, err := p.parseType(s[close+1:])
		if err != nil {
			return nil, err
		}
		ft.Ret = ret
		return ft, nil
	}
	return nil, fmt.Errorf("unknown type %q", s)
}

// parseOperand parses a value reference. vals is the function-local value
// table (nil at global scope).
func (p *parser) parseOperand(s string, vals map[string]Value) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "null":
		return Null(I8), nil
	case strings.HasPrefix(s, "uva(0x"):
		body := strings.TrimPrefix(s, "uva(0x")
		if i := strings.IndexAny(body, ") "); i >= 0 {
			body = body[:i]
		}
		addr, err := strconv.ParseUint(body, 16, 32)
		if err != nil {
			return nil, err
		}
		return &ConstUVA{Typ: Ptr(I8), Addr: uint32(addr)}, nil
	case strings.HasPrefix(s, "@"):
		if f, ok := p.funcs[s[1:]]; ok {
			return f, nil
		}
		if g, ok := p.globals[s[1:]]; ok {
			return g, nil
		}
		return nil, fmt.Errorf("unknown symbol %s", s)
	case strings.HasPrefix(s, "%"):
		if vals == nil {
			return nil, fmt.Errorf("local value %s at global scope", s)
		}
		v, ok := vals[s]
		if !ok {
			return nil, fmt.Errorf("use of undefined value %s", s)
		}
		return v, nil
	}
	// Typed constant: "i32 7" or "f64 3.5".
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("malformed operand %q", s)
	}
	t, err := p.parseType(s[:sp])
	if err != nil {
		return nil, err
	}
	lit := strings.TrimSpace(s[sp+1:])
	switch t := t.(type) {
	case *IntType:
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return nil, err
		}
		return &ConstInt{Typ: t, V: v}, nil
	case *FloatType:
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return nil, err
		}
		return &ConstFloat{Typ: t, V: v}, nil
	}
	return nil, fmt.Errorf("constant of unsupported type %s", t)
}

// splitTop splits s at top-level occurrences of sep (ignoring separators
// inside (), [], {}).
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		default:
			if s[i] == sep && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// matchParen returns the index of the ')' matching the '(' at open.
func matchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}
