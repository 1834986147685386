// Package regularize rewrites parsed SQL queries into the regular,
// conjunctive form that LogR's feature-extraction scheme consumes.
//
// The paper (Section 7, "Query Regularization" and "Constant Removal")
// applies three transformations before encoding a log:
//
//  1. Constant removal: literals are replaced by the bind-parameter
//     placeholder '?' so queries that differ only in hard-coded constants
//     collapse to one distinct query.
//  2. Normalization: identifiers are case-folded, reversed comparisons
//     (? = col) are flipped, BETWEEN is split into a pair of range atoms,
//     and conjunct order is canonicalized (conjunction is commutative).
//  3. Conjunctive rewriting: NOT is pushed down to atoms (De Morgan),
//     and the WHERE clause is converted to disjunctive normal form; a
//     query whose DNF has k > 1 disjuncts becomes a UNION of k conjunctive
//     queries, matching the paper's "re-written into a UNION of conjunctive
//     queries compatible with Aligon et al.'s feature scheme".
//
// A query is only "rewritable" if its DNF stays under a configurable
// blow-up budget; Table 1 counts distinct re-writable queries.
package regularize

import (
	"slices"
	"strings"

	"logr/internal/sqlparser"
)

// Options configure regularization.
type Options struct {
	// ScrubConstants replaces every literal with the '?' parameter.
	ScrubConstants bool
	// MaxDisjuncts bounds the DNF blow-up; a WHERE clause whose DNF
	// exceeds this many disjuncts is reported as not rewritable.
	// Zero means the default of 16.
	MaxDisjuncts int
}

// DefaultOptions scrub constants and allow 16 disjuncts.
var DefaultOptions = Options{ScrubConstants: true, MaxDisjuncts: 16}

// Result is the outcome of regularizing one statement.
type Result struct {
	// Blocks are the conjunctive SELECT blocks; more than one means the
	// original query is equivalent to a UNION of these blocks.
	Blocks []*sqlparser.Select
	// WasConjunctive reports whether the input was already in conjunctive
	// form (possibly after trivial normalization, but before any DNF
	// expansion was needed).
	WasConjunctive bool
	// Rewritable reports whether a conjunctive-equivalent form was found
	// within the disjunct budget. If false, Blocks holds the normalized
	// but non-conjunctive query.
	Rewritable bool
}

// Regularize normalizes stmt per opts. UNION inputs are flattened: each arm
// is regularized independently and the blocks are concatenated.
func Regularize(stmt sqlparser.Statement, opts Options) Result {
	if opts.MaxDisjuncts == 0 {
		opts.MaxDisjuncts = DefaultOptions.MaxDisjuncts
	}
	switch s := stmt.(type) {
	case *sqlparser.Select:
		return regularizeSelect(s, opts)
	case *sqlparser.Union:
		out := Result{WasConjunctive: true, Rewritable: true}
		for _, arm := range s.Selects {
			r := regularizeSelect(arm, opts)
			out.Blocks = append(out.Blocks, r.Blocks...)
			out.WasConjunctive = out.WasConjunctive && r.WasConjunctive
			out.Rewritable = out.Rewritable && r.Rewritable
		}
		return out
	case *sqlparser.With:
		return Regularize(InlineCTEs(s), opts)
	default:
		return Result{}
	}
}

// InlineCTEs rewrites a WITH statement into its body with every CTE
// reference in a FROM clause replaced by an aliased subquery. Later CTEs
// may reference earlier ones (the non-recursive SQL rule); references that
// never occur simply drop their definition. The result contains no *With
// nodes.
func InlineCTEs(w *sqlparser.With) sqlparser.Statement {
	// resolve sequentially so cte_2 can use cte_1
	resolved := map[string]sqlparser.Statement{}
	for _, c := range w.CTEs {
		stmt := c.Stmt
		if inner, ok := stmt.(*sqlparser.With); ok {
			stmt = InlineCTEs(inner)
		}
		resolved[strings.ToLower(c.Name)] = inlineInStatement(stmt, resolved)
	}
	body := w.Body
	if inner, ok := body.(*sqlparser.With); ok {
		body = InlineCTEs(inner)
	}
	return inlineInStatement(body, resolved)
}

func inlineInStatement(stmt sqlparser.Statement, ctes map[string]sqlparser.Statement) sqlparser.Statement {
	switch s := stmt.(type) {
	case *sqlparser.Select:
		out := cloneSelect(s)
		for i, t := range out.From {
			out.From[i] = inlineInTable(t, ctes)
		}
		return out
	case *sqlparser.Union:
		u := &sqlparser.Union{All: s.All}
		for _, arm := range s.Selects {
			u.Selects = append(u.Selects, inlineInStatement(arm, ctes).(*sqlparser.Select))
		}
		return u
	}
	return stmt
}

func inlineInTable(t sqlparser.TableExpr, ctes map[string]sqlparser.Statement) sqlparser.TableExpr {
	switch x := t.(type) {
	case *sqlparser.TableName:
		if x.Schema == "" {
			if stmt, ok := ctes[strings.ToLower(x.Name)]; ok {
				alias := x.Alias
				if alias == "" {
					alias = x.Name
				}
				return &sqlparser.Subquery{Stmt: cloneStatement(stmt), Alias: alias}
			}
		}
		return x
	case *sqlparser.Subquery:
		inner := x.Stmt
		if w, ok := inner.(*sqlparser.With); ok {
			inner = InlineCTEs(w)
		}
		return &sqlparser.Subquery{Stmt: inlineInStatement(inner, ctes), Alias: x.Alias}
	case *sqlparser.Join:
		j := &sqlparser.Join{Kind: x.Kind, Left: inlineInTable(x.Left, ctes), Right: inlineInTable(x.Right, ctes), On: x.On}
		return j
	}
	return t
}

func regularizeSelect(sel *sqlparser.Select, opts Options) Result {
	s := cloneSelect(sel)
	normalizeSelect(s, opts)

	wasConj := s.Where == nil || isConjunction(s.Where)
	if s.Where == nil {
		canonicalizeConjuncts(s)
		return Result{Blocks: []*sqlparser.Select{s}, WasConjunctive: wasConj, Rewritable: true}
	}

	pushed := pushNot(s.Where, false)
	disjuncts, ok := dnf(pushed, opts.MaxDisjuncts)
	if !ok {
		s.Where = pushed
		return Result{Blocks: []*sqlparser.Select{s}, WasConjunctive: false, Rewritable: false}
	}
	blocks := make([]*sqlparser.Select, 0, len(disjuncts))
	for i, conj := range disjuncts {
		// every block but the last is a copy of s; the last, the only one
		// of a conjunctive query, takes s itself, which nothing reads after
		blk := s
		if i < len(disjuncts)-1 {
			blk = cloneSelect(s)
		}
		blk.Where = joinAnd(conj)
		canonicalizeConjuncts(blk)
		blocks = append(blocks, blk)
	}
	return Result{Blocks: blocks, WasConjunctive: wasConj, Rewritable: true}
}

// IsConjunctive reports whether the statement is a single SELECT whose WHERE
// clause (if any) is a conjunction of atoms — the form Aligon et al.'s
// feature scheme handles directly.
func IsConjunctive(stmt sqlparser.Statement) bool {
	s, ok := stmt.(*sqlparser.Select)
	if !ok {
		return false
	}
	return s.Where == nil || isConjunction(s.Where)
}

func isConjunction(e sqlparser.Expr) bool {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return isConjunction(b.Left) && isConjunction(b.Right)
	}
	return isAtom(e)
}

// isAtom reports whether e is a predicate atom (no AND/OR/NOT structure
// above it, except NOT LIKE which we treat as an atomic predicate).
func isAtom(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		return x.Op != "AND" && x.Op != "OR"
	case *sqlparser.UnaryExpr:
		if x.Op != "NOT" {
			return true
		}
		// NOT LIKE / NOT over an opaque atom is atomic; NOT over boolean
		// structure is not.
		if inner, ok := x.Expr.(*sqlparser.BinaryExpr); ok {
			return inner.Op == "LIKE"
		}
		return isAtom(x.Expr)
	case *sqlparser.InExpr, *sqlparser.BetweenExpr, *sqlparser.IsNullExpr,
		*sqlparser.ExistsExpr, *sqlparser.Column, *sqlparser.Literal,
		*sqlparser.Param, *sqlparser.FuncCall, *sqlparser.CaseExpr,
		*sqlparser.SubqueryExpr:
		return true
	}
	return true
}

// --- normalization --------------------------------------------------------

func normalizeSelect(s *sqlparser.Select, opts Options) {
	for i := range s.Items {
		if s.Items[i].Expr != nil {
			s.Items[i].Expr = normalizeExpr(s.Items[i].Expr, opts)
		}
		s.Items[i].Alias = strings.ToLower(s.Items[i].Alias)
	}
	for i, t := range s.From {
		s.From[i] = normalizeTable(t, opts)
	}
	if s.Where != nil {
		s.Where = normalizeExpr(s.Where, opts)
	}
	for i := range s.GroupBy {
		s.GroupBy[i] = normalizeExpr(s.GroupBy[i], opts)
	}
	if s.Having != nil {
		s.Having = normalizeExpr(s.Having, opts)
	}
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = normalizeExpr(s.OrderBy[i].Expr, opts)
	}
	if s.Limit != nil {
		s.Limit = normalizeExpr(s.Limit, opts)
	}
	if s.Offset != nil {
		s.Offset = normalizeExpr(s.Offset, opts)
	}
}

func normalizeTable(t sqlparser.TableExpr, opts Options) sqlparser.TableExpr {
	switch x := t.(type) {
	case *sqlparser.TableName:
		return &sqlparser.TableName{
			Schema: strings.ToLower(x.Schema),
			Name:   strings.ToLower(x.Name),
			Alias:  strings.ToLower(x.Alias),
		}
	case *sqlparser.Subquery:
		inner := Regularize(x.Stmt, Options{ScrubConstants: opts.ScrubConstants, MaxDisjuncts: opts.MaxDisjuncts})
		var stmt sqlparser.Statement
		if len(inner.Blocks) == 1 {
			stmt = inner.Blocks[0]
		} else if len(inner.Blocks) > 1 {
			stmt = &sqlparser.Union{Selects: inner.Blocks, All: true}
		} else {
			stmt = x.Stmt
		}
		return &sqlparser.Subquery{Stmt: stmt, Alias: strings.ToLower(x.Alias)}
	case *sqlparser.Join:
		j := &sqlparser.Join{
			Kind:  x.Kind,
			Left:  normalizeTable(x.Left, opts),
			Right: normalizeTable(x.Right, opts),
		}
		if x.On != nil {
			j.On = normalizeExpr(x.On, opts)
		}
		return j
	}
	return t
}

var flipOp = map[string]string{
	"=": "=", "!=": "!=", "<>": "<>",
	"<": ">", ">": "<", "<=": ">=", ">=": "<=",
}

func normalizeExpr(e sqlparser.Expr, opts Options) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.Column:
		return &sqlparser.Column{Table: strings.ToLower(x.Table), Name: strings.ToLower(x.Name)}
	case *sqlparser.Literal:
		if opts.ScrubConstants && x.Kind != sqlparser.NullLit {
			return &sqlparser.Param{Text: "?"}
		}
		return x
	case *sqlparser.Param:
		// all bind-parameter spellings collapse to '?'
		return &sqlparser.Param{Text: "?"}
	case *sqlparser.BinaryExpr:
		l := normalizeExpr(x.Left, opts)
		r := normalizeExpr(x.Right, opts)
		op := x.Op
		if op == "<>" {
			op = "!="
		}
		// flip "? op col" to "col op' ?"
		if f, ok := flipOp[op]; ok {
			if !isColumnish(l) && isColumnish(r) {
				l, r, op = r, l, f
			}
		}
		return &sqlparser.BinaryExpr{Op: op, Left: l, Right: r}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, Expr: normalizeExpr(x.Expr, opts)}
	case *sqlparser.InExpr:
		in := &sqlparser.InExpr{Not: x.Not, Left: normalizeExpr(x.Left, opts)}
		if x.Query != nil {
			in.Query = normalizeSubquery(x.Query, opts)
			return in
		}
		if opts.ScrubConstants {
			// an IN list of scrubbed constants collapses to a single '?'
			in.List = []sqlparser.Expr{&sqlparser.Param{Text: "?"}}
			return in
		}
		for _, item := range x.List {
			in.List = append(in.List, normalizeExpr(item, opts))
		}
		return in
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			Not:  x.Not,
			Expr: normalizeExpr(x.Expr, opts),
			Lo:   normalizeExpr(x.Lo, opts),
			Hi:   normalizeExpr(x.Hi, opts),
		}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{Not: x.Not, Expr: normalizeExpr(x.Expr, opts)}
	case *sqlparser.ExistsExpr:
		return &sqlparser.ExistsExpr{Not: x.Not, Query: normalizeSubquery(x.Query, opts)}
	case *sqlparser.FuncCall:
		f := &sqlparser.FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			f.Args = append(f.Args, normalizeExpr(a, opts))
		}
		return f
	case *sqlparser.CaseExpr:
		c := &sqlparser.CaseExpr{}
		if x.Operand != nil {
			c.Operand = normalizeExpr(x.Operand, opts)
		}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, sqlparser.WhenClause{
				Cond:   normalizeExpr(w.Cond, opts),
				Result: normalizeExpr(w.Result, opts),
			})
		}
		if x.Else != nil {
			c.Else = normalizeExpr(x.Else, opts)
		}
		return c
	case *sqlparser.SubqueryExpr:
		return &sqlparser.SubqueryExpr{Query: normalizeSubquery(x.Query, opts)}
	}
	return e
}

func normalizeSubquery(q *sqlparser.Subquery, opts Options) *sqlparser.Subquery {
	r := Regularize(q.Stmt, opts)
	var stmt sqlparser.Statement
	switch {
	case len(r.Blocks) == 1:
		stmt = r.Blocks[0]
	case len(r.Blocks) > 1:
		stmt = &sqlparser.Union{Selects: r.Blocks, All: true}
	default:
		stmt = q.Stmt
	}
	return &sqlparser.Subquery{Stmt: stmt, Alias: strings.ToLower(q.Alias)}
}

func isColumnish(e sqlparser.Expr) bool {
	switch e.(type) {
	case *sqlparser.Column, *sqlparser.FuncCall:
		return true
	}
	return false
}

// --- NOT push-down --------------------------------------------------------

var negateOp = map[string]string{
	"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<",
}

// pushNot pushes negation down to atoms. neg tracks whether an odd number of
// NOTs surround the current node.
func pushNot(e sqlparser.Expr, neg bool) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			// NOT LIKE stays atomic
			if inner, ok := x.Expr.(*sqlparser.BinaryExpr); ok && inner.Op == "LIKE" {
				if neg {
					return inner
				}
				return x
			}
			return pushNot(x.Expr, !neg)
		}
		return x
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND":
			op := "AND"
			if neg {
				op = "OR"
			}
			return &sqlparser.BinaryExpr{Op: op, Left: pushNot(x.Left, neg), Right: pushNot(x.Right, neg)}
		case "OR":
			op := "OR"
			if neg {
				op = "AND"
			}
			return &sqlparser.BinaryExpr{Op: op, Left: pushNot(x.Left, neg), Right: pushNot(x.Right, neg)}
		case "LIKE":
			if neg {
				return &sqlparser.UnaryExpr{Op: "NOT", Expr: x}
			}
			return x
		default:
			if neg {
				if nop, ok := negateOp[x.Op]; ok {
					return &sqlparser.BinaryExpr{Op: nop, Left: x.Left, Right: x.Right}
				}
				return &sqlparser.UnaryExpr{Op: "NOT", Expr: x}
			}
			return x
		}
	case *sqlparser.InExpr:
		if neg {
			return &sqlparser.InExpr{Not: !x.Not, Left: x.Left, List: x.List, Query: x.Query}
		}
		return x
	case *sqlparser.BetweenExpr:
		if neg != x.Not {
			// NOT BETWEEN lo AND hi ≡ x < lo OR x > hi
			return &sqlparser.BinaryExpr{
				Op:    "OR",
				Left:  &sqlparser.BinaryExpr{Op: "<", Left: x.Expr, Right: x.Lo},
				Right: &sqlparser.BinaryExpr{Op: ">", Left: x.Expr, Right: x.Hi},
			}
		}
		x = &sqlparser.BetweenExpr{Expr: x.Expr, Lo: x.Lo, Hi: x.Hi}
		// BETWEEN lo AND hi ≡ x >= lo AND x <= hi; split so each range end
		// becomes its own conjunctive atom.
		return &sqlparser.BinaryExpr{
			Op:    "AND",
			Left:  &sqlparser.BinaryExpr{Op: ">=", Left: x.Expr, Right: x.Lo},
			Right: &sqlparser.BinaryExpr{Op: "<=", Left: x.Expr, Right: x.Hi},
		}
	case *sqlparser.IsNullExpr:
		if neg {
			return &sqlparser.IsNullExpr{Not: !x.Not, Expr: x.Expr}
		}
		return x
	case *sqlparser.ExistsExpr:
		if neg {
			return &sqlparser.ExistsExpr{Not: !x.Not, Query: x.Query}
		}
		return x
	default:
		if neg {
			return &sqlparser.UnaryExpr{Op: "NOT", Expr: e}
		}
		return e
	}
}

// --- DNF ------------------------------------------------------------------

// dnf converts a NOT-free boolean expression into disjunctive normal form:
// a slice of conjunctions, each a slice of atoms. The conversion aborts
// (returns ok=false) once the number of disjuncts exceeds maxDisjuncts.
func dnf(e sqlparser.Expr, maxDisjuncts int) ([][]sqlparser.Expr, bool) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "OR":
			l, ok := dnf(x.Left, maxDisjuncts)
			if !ok {
				return nil, false
			}
			r, ok := dnf(x.Right, maxDisjuncts)
			if !ok {
				return nil, false
			}
			out := append(l, r...)
			if len(out) > maxDisjuncts {
				return nil, false
			}
			return out, true
		case "AND":
			l, ok := dnf(x.Left, maxDisjuncts)
			if !ok {
				return nil, false
			}
			r, ok := dnf(x.Right, maxDisjuncts)
			if !ok {
				return nil, false
			}
			if len(l)*len(r) > maxDisjuncts {
				return nil, false
			}
			out := make([][]sqlparser.Expr, 0, len(l)*len(r))
			for _, lc := range l {
				for _, rc := range r {
					conj := make([]sqlparser.Expr, 0, len(lc)+len(rc))
					conj = append(conj, lc...)
					conj = append(conj, rc...)
					out = append(out, conj)
				}
			}
			return out, true
		}
	}
	return [][]sqlparser.Expr{{e}}, true
}

func joinAnd(atoms []sqlparser.Expr) sqlparser.Expr {
	if len(atoms) == 0 {
		return nil
	}
	out := atoms[0]
	for _, a := range atoms[1:] {
		out = &sqlparser.BinaryExpr{Op: "AND", Left: out, Right: a}
	}
	return out
}

// canonicalizeConjuncts flattens the WHERE conjunction, deduplicates atoms
// by rendered SQL, sorts them, and rebuilds a left-deep AND chain. It also
// sorts SELECT items by rendered SQL (the paper treats a query as the *set*
// of its features, modulo commutativity and column order). Each atom and
// item is rendered once.
func canonicalizeConjuncts(s *sqlparser.Select) {
	if s.Where != nil && isConjunction(s.Where) {
		var atoms []sqlparser.Expr
		collectConjuncts(s.Where, &atoms)
		sorted := sortedBySQL(atoms, sqlparser.Expr.SQL)
		uniq := atoms[:0]
		for i, a := range sorted {
			// the stable sort puts an atom's first occurrence first
			if i == 0 || a.key != sorted[i-1].key {
				uniq = append(uniq, a.node)
			}
		}
		s.Where = joinAnd(uniq)
	}
	for i, it := range sortedBySQL(s.Items, sqlparser.SelectItem.SQL) {
		s.Items[i] = it.node
	}
}

// rendered pairs an AST node with its SQL text.
type rendered[T any] struct {
	key  string
	node T
}

// sortedBySQL renders each node once and returns the nodes stably sorted
// by their SQL text.
func sortedBySQL[T any](nodes []T, sql func(T) string) []rendered[T] {
	out := make([]rendered[T], len(nodes))
	for i, n := range nodes {
		out[i] = rendered[T]{sql(n), n}
	}
	slices.SortStableFunc(out, func(a, b rendered[T]) int { return strings.Compare(a.key, b.key) })
	return out
}

func collectConjuncts(e sqlparser.Expr, out *[]sqlparser.Expr) {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		collectConjuncts(b.Left, out)
		collectConjuncts(b.Right, out)
		return
	}
	*out = append(*out, e)
}

// Conjuncts returns the flattened conjunct atoms of a WHERE clause that is
// in conjunctive form. Callers should check IsConjunctive first; on a
// non-conjunctive clause, OR/NOT subtrees are returned as single entries.
func Conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	var out []sqlparser.Expr
	if e != nil {
		collectConjuncts(e, &out)
	}
	return out
}

// --- deep clone -----------------------------------------------------------

func cloneSelect(s *sqlparser.Select) *sqlparser.Select {
	out := &sqlparser.Select{Distinct: s.Distinct}
	for _, it := range s.Items {
		ci := sqlparser.SelectItem{Alias: it.Alias, Star: it.Star}
		if it.Expr != nil {
			ci.Expr = cloneExpr(it.Expr)
		}
		out.Items = append(out.Items, ci)
	}
	for _, t := range s.From {
		out.From = append(out.From, cloneTable(t))
	}
	if s.Where != nil {
		out.Where = cloneExpr(s.Where)
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, cloneExpr(g))
	}
	if s.Having != nil {
		out.Having = cloneExpr(s.Having)
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, sqlparser.OrderItem{Expr: cloneExpr(o.Expr), Desc: o.Desc})
	}
	if s.Limit != nil {
		out.Limit = cloneExpr(s.Limit)
	}
	if s.Offset != nil {
		out.Offset = cloneExpr(s.Offset)
	}
	return out
}

func cloneStatement(stmt sqlparser.Statement) sqlparser.Statement {
	switch x := stmt.(type) {
	case *sqlparser.Select:
		return cloneSelect(x)
	case *sqlparser.Union:
		u := &sqlparser.Union{All: x.All}
		for _, s := range x.Selects {
			u.Selects = append(u.Selects, cloneSelect(s))
		}
		return u
	}
	return stmt
}

func cloneTable(t sqlparser.TableExpr) sqlparser.TableExpr {
	switch x := t.(type) {
	case *sqlparser.TableName:
		c := *x
		return &c
	case *sqlparser.Subquery:
		return &sqlparser.Subquery{Stmt: cloneStatement(x.Stmt), Alias: x.Alias}
	case *sqlparser.Join:
		j := &sqlparser.Join{Kind: x.Kind, Left: cloneTable(x.Left), Right: cloneTable(x.Right)}
		if x.On != nil {
			j.On = cloneExpr(x.On)
		}
		return j
	}
	return t
}

func cloneExpr(e sqlparser.Expr) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.Column:
		c := *x
		return &c
	case *sqlparser.Literal:
		c := *x
		return &c
	case *sqlparser.Param:
		c := *x
		return &c
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: x.Op, Left: cloneExpr(x.Left), Right: cloneExpr(x.Right)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, Expr: cloneExpr(x.Expr)}
	case *sqlparser.InExpr:
		in := &sqlparser.InExpr{Not: x.Not, Left: cloneExpr(x.Left)}
		for _, item := range x.List {
			in.List = append(in.List, cloneExpr(item))
		}
		if x.Query != nil {
			in.Query = &sqlparser.Subquery{Stmt: cloneStatement(x.Query.Stmt), Alias: x.Query.Alias}
		}
		return in
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{Not: x.Not, Expr: cloneExpr(x.Expr), Lo: cloneExpr(x.Lo), Hi: cloneExpr(x.Hi)}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{Not: x.Not, Expr: cloneExpr(x.Expr)}
	case *sqlparser.ExistsExpr:
		return &sqlparser.ExistsExpr{Not: x.Not, Query: &sqlparser.Subquery{Stmt: cloneStatement(x.Query.Stmt), Alias: x.Query.Alias}}
	case *sqlparser.FuncCall:
		f := &sqlparser.FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			f.Args = append(f.Args, cloneExpr(a))
		}
		return f
	case *sqlparser.CaseExpr:
		c := &sqlparser.CaseExpr{}
		if x.Operand != nil {
			c.Operand = cloneExpr(x.Operand)
		}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, sqlparser.WhenClause{Cond: cloneExpr(w.Cond), Result: cloneExpr(w.Result)})
		}
		if x.Else != nil {
			c.Else = cloneExpr(x.Else)
		}
		return c
	case *sqlparser.SubqueryExpr:
		return &sqlparser.SubqueryExpr{Query: &sqlparser.Subquery{Stmt: cloneStatement(x.Query.Stmt), Alias: x.Query.Alias}}
	}
	return e
}
