package sqlparser

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Node is implemented by every AST node.
type Node interface {
	// SQL renders the node back to SQL text. The output is canonical:
	// keywords upper-case, single spaces, minimal parentheses — parsing
	// the result yields an equal AST (round-trip property).
	SQL() string
}

// Statement is a top-level statement: *Select or *Union.
type Statement interface {
	Node
	stmt()
}

// Select is a single SELECT query block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr
	Where    Expr // nil if absent
	GroupBy  []Expr
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	Limit    Expr // nil if absent
	Offset   Expr // nil if absent
}

func (*Select) stmt() {}

// Union is a UNION [ALL] chain of SELECT blocks, in source order.
type Union struct {
	Selects []*Select
	All     bool
}

func (*Union) stmt() {}

// With is a non-recursive common-table-expression prefix: WITH name AS
// (select), ... body. The regularizer inlines CTE references before feature
// extraction.
type With struct {
	CTEs []CTE
	Body Statement
}

func (*With) stmt() {}

// CTE is one WITH binding.
type CTE struct {
	Name string
	Stmt Statement
}

// SelectItem is one entry in the SELECT list.
type SelectItem struct {
	Expr  Expr   // nil for bare '*'
	Alias string // optional AS alias
	Star  bool   // true for '*' or 'tbl.*' (Expr holds the qualifier column for tbl.*)
}

// OrderItem is one entry in the ORDER BY list.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableExpr is a FROM-clause item: *TableName, *Subquery, or *Join.
type TableExpr interface {
	Node
	tableExpr()
}

// TableName is a (possibly qualified) base table reference.
type TableName struct {
	Schema string
	Name   string
	Alias  string
}

func (*TableName) tableExpr() {}

// Subquery is a parenthesized SELECT used as a table or scalar expression.
type Subquery struct {
	Stmt  Statement
	Alias string
}

func (*Subquery) tableExpr() {}

// JoinKind enumerates join types.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	FullJoin
	CrossJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case FullJoin:
		return "FULL JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// Join is an explicit JOIN between two table expressions.
type Join struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for CROSS JOIN
}

func (*Join) tableExpr() {}

// Expr is a scalar or boolean expression.
type Expr interface {
	Node
	expr()
}

// Column is a (possibly qualified) column reference.
type Column struct {
	Table string
	Name  string
}

func (*Column) expr() {}

// Literal is a constant: number, string, TRUE/FALSE, or NULL.
type Literal struct {
	Kind LiteralKind
	Text string // raw literal text ('42', "'abc'", 'TRUE', 'NULL')
}

func (*Literal) expr() {}

// LiteralKind classifies literals.
type LiteralKind int

// Literal kinds.
const (
	NumberLit LiteralKind = iota
	StringLit
	BoolLit
	NullLit
)

// Param is a bind parameter: '?', ':name', '$1', '@v'.
type Param struct {
	Text string
}

func (*Param) expr() {}

// BinaryExpr is a binary operation. Op covers comparisons (=, <, >, <=, >=,
// <>, !=), arithmetic (+, -, *, /, %), string concat (||), AND, OR, LIKE.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (*UnaryExpr) expr() {}

// InExpr is x [NOT] IN (list...) or x [NOT] IN (subquery).
type InExpr struct {
	Not   bool
	Left  Expr
	List  []Expr
	Query *Subquery // nil unless subquery form
}

func (*InExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Not  bool
	Expr Expr
	Lo   Expr
	Hi   Expr
}

func (*BetweenExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Not  bool
	Expr Expr
}

func (*IsNullExpr) expr() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not   bool
	Query *Subquery
}

func (*ExistsExpr) expr() {}

// FuncCall is fn(args...) including aggregates. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*FuncCall) expr() {}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // nil if absent
}

func (*CaseExpr) expr() {}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// SubqueryExpr is a scalar subquery used in an expression position.
type SubqueryExpr struct {
	Query *Subquery
}

func (*SubqueryExpr) expr() {}

// --- SQL rendering -------------------------------------------------------

// SQL renders the statement canonically.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.SQL())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.SQL())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(s.Limit.SQL())
	}
	if s.Offset != nil {
		sb.WriteString(" OFFSET ")
		sb.WriteString(s.Offset.SQL())
	}
	return sb.String()
}

// SQL renders the WITH statement canonically.
func (w *With) SQL() string {
	var sb strings.Builder
	sb.WriteString("WITH ")
	for i, c := range w.CTEs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(c.Name) + " AS (" + c.Stmt.SQL() + ")")
	}
	sb.WriteString(" " + w.Body.SQL())
	return sb.String()
}

// SQL renders the union canonically.
func (u *Union) SQL() string {
	sep := " UNION "
	if u.All {
		sep = " UNION ALL "
	}
	parts := make([]string, len(u.Selects))
	for i, s := range u.Selects {
		parts[i] = s.SQL()
	}
	return strings.Join(parts, sep)
}

// SQL renders the select item.
// quoteIdent renders an identifier, double-quoting it when the bare text
// would not re-lex as the same single identifier token — keywords, an empty
// name, or characters outside the identifier alphabet. Embedded double
// quotes are doubled, mirroring the lexer's escape rule, so every name the
// lexer can produce round-trips through the printer.
func quoteIdent(name string) string {
	if isPlainIdent(name) {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func isPlainIdent(name string) bool {
	if _, kw := keyword(name); name == "" || kw {
		return false
	}
	for i, r := range name {
		if r == utf8.RuneError {
			return false
		}
		if i == 0 {
			if !isIdentStart(r) {
				return false
			}
		} else if !isIdentPart(r) {
			return false
		}
	}
	return true
}

func (it SelectItem) SQL() string {
	if it.Star {
		if c, ok := it.Expr.(*Column); ok && c.Table != "" {
			return quoteIdent(c.Table) + ".*"
		}
		return "*"
	}
	s := it.Expr.SQL()
	if it.Alias != "" {
		s += " AS " + quoteIdent(it.Alias)
	}
	return s
}

// SQL renders the table name.
func (t *TableName) SQL() string {
	s := quoteIdent(t.Name)
	if t.Schema != "" {
		s = quoteIdent(t.Schema) + "." + quoteIdent(t.Name)
	}
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// SQL renders the subquery.
func (q *Subquery) SQL() string {
	s := "(" + q.Stmt.SQL() + ")"
	if q.Alias != "" {
		s += " AS " + quoteIdent(q.Alias)
	}
	return s
}

// SQL renders the join.
func (j *Join) SQL() string {
	s := j.Left.SQL() + " " + j.Kind.String() + " " + j.Right.SQL()
	if j.On != nil {
		s += " ON " + j.On.SQL()
	}
	return s
}

// SQL renders the column reference.
func (c *Column) SQL() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Text }

// SQL renders the parameter.
func (p *Param) SQL() string { return p.Text }

// precedence returns a binding strength for parenthesization decisions.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<", ">", "<=", ">=", "<>", "!=", "LIKE":
		return 3
	case "+", "-", "||":
		return 4
	case "*", "/", "%":
		return 5
	}
	return 6
}

func renderOperand(e Expr, parentPrec int) string {
	if b, ok := e.(*BinaryExpr); ok {
		if precedence(b.Op) < parentPrec {
			return "(" + b.SQL() + ")"
		}
	}
	return e.SQL()
}

// SQL renders the binary expression with minimal parentheses.
func (b *BinaryExpr) SQL() string {
	p := precedence(b.Op)
	// Right operand uses p+1 so same-precedence chains associate left,
	// matching the parser, and the round-trip yields an identical tree.
	return renderOperand(b.Left, p) + " " + b.Op + " " + renderOperand(b.Right, p+1)
}

// SQL renders the unary expression.
func (u *UnaryExpr) SQL() string {
	if u.Op == "NOT" {
		switch u.Expr.(type) {
		case *BinaryExpr:
			return "NOT (" + u.Expr.SQL() + ")"
		default:
			return "NOT " + u.Expr.SQL()
		}
	}
	return u.Op + u.Expr.SQL()
}

// SQL renders the IN expression.
func (in *InExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString(renderOperand(in.Left, 3))
	if in.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if in.Query != nil {
		sb.WriteString(in.Query.Stmt.SQL())
	} else {
		for i, e := range in.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// SQL renders the BETWEEN expression.
func (b *BetweenExpr) SQL() string {
	s := renderOperand(b.Expr, 3)
	if b.Not {
		s += " NOT"
	}
	return fmt.Sprintf("%s BETWEEN %s AND %s", s, renderOperand(b.Lo, 3), renderOperand(b.Hi, 3))
}

// SQL renders the IS NULL expression.
func (i *IsNullExpr) SQL() string {
	s := renderOperand(i.Expr, 3) + " IS "
	if i.Not {
		s += "NOT "
	}
	return s + "NULL"
}

// SQL renders the EXISTS expression.
func (e *ExistsExpr) SQL() string {
	s := "EXISTS (" + e.Query.Stmt.SQL() + ")"
	if e.Not {
		return "NOT " + s
	}
	return s
}

// SQL renders the function call.
func (f *FuncCall) SQL() string {
	if f.Star {
		return quoteIdent(f.Name) + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return quoteIdent(f.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// SQL renders the CASE expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" " + c.Operand.SQL())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Result.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SQL renders the scalar subquery.
func (s *SubqueryExpr) SQL() string { return "(" + s.Query.Stmt.SQL() + ")" }
