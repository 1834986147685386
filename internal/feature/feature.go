// Package feature implements the Aligon et al. feature-extraction scheme
// the paper adopts (Section 2.2), together with the codebook that provides
// the bi-directional mapping between SQL queries and bit-vector encodings.
//
// Each feature is one of three query elements:
//
//	(1) a table or sub-query in the FROM clause,
//	(2) a column in the SELECT clause,
//	(3) a conjunctive atom of the WHERE clause.
//
// Under this scheme the feature set of a conjunctive query is isomorphic to
// the query itself (modulo commutativity and column order), which is the
// assumption LogR's interpretability results rest on. The optional extended
// scheme also captures GROUP BY, ORDER BY and aggregation features in the
// style of Makiyama et al., which the paper cites as a richer alternative.
package feature

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"

	"logr/internal/binenc"
	"logr/internal/bitvec"
	"logr/internal/sqlparser"
)

// Kind classifies features by the clause they come from.
type Kind int

// Feature kinds. The first three form the Aligon scheme; the remainder are
// the extended (Makiyama-style) kinds.
const (
	FromKind Kind = iota
	SelectKind
	WhereKind
	GroupByKind
	OrderByKind
	AggKind
)

func (k Kind) String() string {
	switch k {
	case FromKind:
		return "FROM"
	case SelectKind:
		return "SELECT"
	case WhereKind:
		return "WHERE"
	case GroupByKind:
		return "GROUPBY"
	case OrderByKind:
		return "ORDERBY"
	case AggKind:
		return "AGG"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Feature is a single structural element 〈Text, Kind〉, e.g.
// 〈status = ?, WHERE〉 or 〈messages, FROM〉.
type Feature struct {
	Kind Kind
	Text string
}

func (f Feature) String() string { return "⟨" + f.Text + ", " + f.Kind.String() + "⟩" }

// Scheme selects which feature kinds are extracted.
type Scheme int

// Available schemes.
const (
	// AligonScheme extracts FROM tables, SELECT columns and WHERE atoms.
	AligonScheme Scheme = iota
	// ExtendedScheme additionally extracts GROUP BY, ORDER BY and
	// aggregate-function features.
	ExtendedScheme
)

// Codebook assigns stable indices to features as they are first observed.
// It is the dictionary component of a LogR-compressed log: with it, any
// pattern (bit vector) can be translated back into query syntax.
//
// A Codebook is safe for concurrent use: the encode pipeline extends it in
// place while summaries and pattern probes built from earlier snapshots
// keep reading it. Indices are append-only, so a reader's view is always a
// consistent prefix.
type Codebook struct {
	mu     sync.RWMutex
	scheme Scheme
	feats  []Feature
	// slots is the feature → index table: open addressing with linear
	// probing over feats, a slot holding index+1 (0 = empty), its length a
	// power of two kept under 3/4 full. At 4 bytes a slot it costs a
	// fraction of a map[Feature]int, which matters where a codebook is
	// large: the encoder's with-constants codebook holds a feature or two
	// per distinct statement of a log whose statements differ in their
	// literals.
	slots []uint32
	seed  maphash.Seed
}

// NewCodebook returns an empty codebook using the given scheme.
func NewCodebook(scheme Scheme) *Codebook {
	return &Codebook{scheme: scheme, seed: maphash.MakeSeed()}
}

// Scheme returns the extraction scheme.
func (c *Codebook) Scheme() Scheme { return c.scheme }

// Size returns the number of distinct features registered so far — the
// dimensionality n of the encoding universe.
func (c *Codebook) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.feats)
}

// Feature returns the feature with index i.
func (c *Codebook) Feature(i int) Feature {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.feats[i]
}

// featsSnapshot returns a consistent read-only view of the feature list.
// The codebook is append-only and indices [0, len) are never rewritten, so
// the slice header taken under the lock stays valid without a copy.
func (c *Codebook) featsSnapshot() []Feature {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.feats[:len(c.feats):len(c.feats)]
}

// Features returns a copy of all registered features in index order.
func (c *Codebook) Features() []Feature {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Feature, len(c.feats))
	copy(out, c.feats)
	return out
}

// Lookup returns the index of f if it has been registered.
func (c *Codebook) Lookup(f Feature) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, _ := c.find(f); i >= 0 {
		return i, true
	}
	return 0, false
}

// find returns f's index, or -1 if it is not registered, and the slot that
// holds it or would. Caller holds c.mu; slots must not be empty to use the
// slot.
func (c *Codebook) find(f Feature) (index, slot int) {
	if len(c.slots) == 0 {
		return -1, -1
	}
	mask := uint64(len(c.slots) - 1)
	h := maphash.String(c.seed, f.Text) + uint64(f.Kind)*0x9E3779B97F4A7C15
	for i := h & mask; ; i = (i + 1) & mask {
		switch s := c.slots[i]; {
		case s == 0:
			return -1, int(i)
		case c.feats[s-1] == f:
			return int(s - 1), int(i)
		}
	}
}

// Register adds a feature to the codebook (if absent) and returns its
// index. Used when rebuilding a codebook from a serialized summary; during
// encoding, Intern registers features in bulk.
func (c *Codebook) Register(f Feature) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.intern(f)
}

// Intern registers the features of feats that are new, in the order they
// appear, and returns the indices of all of them, sorted and deduplicated.
// The codebook's indices therefore depend only on the order in which
// feature lists are interned, not on where they were walked.
func (c *Codebook) Intern(feats []Feature) []int {
	out := make([]int, len(feats))
	c.mu.Lock()
	for i, f := range feats {
		out[i] = c.intern(f)
	}
	c.mu.Unlock()
	slices.Sort(out)
	return slices.Compact(out)
}

// intern registers f if new and returns its index. Caller holds c.mu.
func (c *Codebook) intern(f Feature) int {
	i, slot := c.find(f)
	if i >= 0 {
		return i
	}
	if (len(c.feats)+1)*4 > len(c.slots)*3 {
		c.slots = make([]uint32, max(8, 2*len(c.slots)))
		for j, g := range c.feats {
			_, at := c.find(g)
			c.slots[at] = uint32(j + 1)
		}
		_, slot = c.find(f)
	}
	c.feats = append(c.feats, f)
	c.slots[slot] = uint32(len(c.feats))
	return len(c.feats) - 1
}

// Restore registers f at the next index: the step of rebuilding a
// serialized codebook, whose features are distinct and of a known kind.
func (c *Codebook) Restore(f Feature) error {
	next := c.Size()
	if f.Kind < FromKind || f.Kind > AggKind {
		return fmt.Errorf("feature: codebook holds feature %d of unknown kind %d", next, f.Kind)
	}
	if c.Register(f) != next {
		return fmt.Errorf("feature: codebook repeats feature %d", next)
	}
	return nil
}

// AppendSection appends the features with indices in [from, to) as a
// codebook section, the layout LGRS summaries and the encoder state share:
//
//	n uvarint, n × (kind uvarint, len uvarint, text)
func (c *Codebook) AppendSection(b []byte, from, to int) []byte {
	b = binary.AppendUvarint(b, uint64(to-from))
	for _, f := range c.featsSnapshot()[from:to] {
		b = binary.AppendUvarint(b, uint64(f.Kind))
		b = binenc.AppendString(b, f.Text)
	}
	return b
}

// ReadSection restores a codebook section onto the indices following the
// ones the codebook holds, latching a failure in r.
func (c *Codebook) ReadSection(r *binenc.Reader) {
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- {
		f := Feature{Kind: Kind(r.Int(binenc.MaxInt)), Text: r.Text()}
		if r.Err() == nil {
			r.Fail(c.Restore(f))
		}
	}
}

// Extract returns the feature set of a conjunctive SELECT block as sorted,
// deduplicated codebook indices, registering unseen features: the block's
// AppendFeatures walk, interned.
//
// Non-conjunctive WHERE clauses are not rejected — OR/NOT subtrees become a
// single opaque WHERE atom — but callers that need the isomorphism property
// should regularize first (see internal/regularize).
func (c *Codebook) Extract(sel *sqlparser.Select) []int {
	return c.Intern(c.scheme.AppendFeatures(nil, sel))
}

// AppendFeatures appends the features of a conjunctive SELECT block to dst
// in walk order — FROM, SELECT, WHERE, then the extended scheme's kinds —
// and returns the extended slice; a feature may occur more than once. It
// reads nothing but sel, so blocks can be walked on parallel workers and
// their features interned afterwards in a fixed order.
func (s Scheme) AppendFeatures(dst []Feature, sel *sqlparser.Select) []Feature {
	add := func(f Feature) { dst = append(dst, f) }

	// FROM clause: tables, subqueries (rendered), and join trees flattened.
	var fromWalk func(t sqlparser.TableExpr)
	fromWalk = func(t sqlparser.TableExpr) {
		switch x := t.(type) {
		case *sqlparser.TableName:
			name := x.Name
			if x.Schema != "" {
				name = x.Schema + "." + x.Name
			}
			add(Feature{FromKind, name})
		case *sqlparser.Subquery:
			add(Feature{FromKind, "(" + x.Stmt.SQL() + ")"})
		case *sqlparser.Join:
			fromWalk(x.Left)
			fromWalk(x.Right)
			if x.On != nil {
				for _, atom := range conjuncts(x.On) {
					add(Feature{WhereKind, atom.SQL()})
				}
			}
		}
	}
	for _, t := range sel.From {
		fromWalk(t)
	}

	// SELECT clause: one feature per output column.
	for _, it := range sel.Items {
		if it.Star {
			txt := "*"
			if col, ok := it.Expr.(*sqlparser.Column); ok && col.Table != "" {
				txt = col.Table + ".*"
			}
			add(Feature{SelectKind, txt})
			continue
		}
		add(Feature{SelectKind, it.Expr.SQL()})
		if s == ExtendedScheme {
			if fc, ok := it.Expr.(*sqlparser.FuncCall); ok && isAggregate(fc.Name) {
				add(Feature{AggKind, fc.SQL()})
			}
		}
	}

	// WHERE clause: one feature per conjunctive atom.
	if sel.Where != nil {
		for _, atom := range conjuncts(sel.Where) {
			add(Feature{WhereKind, atom.SQL()})
		}
	}

	if s == ExtendedScheme {
		for _, g := range sel.GroupBy {
			add(Feature{GroupByKind, g.SQL()})
		}
		if sel.Having != nil {
			for _, atom := range conjuncts(sel.Having) {
				add(Feature{WhereKind, "HAVING " + atom.SQL()})
			}
		}
		for _, o := range sel.OrderBy {
			dir := "ASC"
			if o.Desc {
				dir = "DESC"
			}
			add(Feature{OrderByKind, o.Expr.SQL() + " " + dir})
		}
	}
	return dst
}

func conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	var out []sqlparser.Expr
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		out = append(out, e)
	}
	walk(e)
	return out
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// Vector materializes a set of feature indices as a bit vector over the
// codebook's *current* universe.
func (c *Codebook) Vector(indices []int) bitvec.Vector {
	v := bitvec.New(c.Size())
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Decode translates a feature vector (a pattern or an encoded query) back
// into a SELECT statement — the inverse direction of the isomorphism in
// Section 2.1. Features of kinds with no clause of their own (AGG) are
// folded into the SELECT list; an empty SELECT list is rendered as '*'.
func (c *Codebook) Decode(v bitvec.Vector) (*sqlparser.Select, error) {
	if v.Len() > c.Size() {
		return nil, fmt.Errorf("feature: vector universe %d exceeds codebook size %d", v.Len(), c.Size())
	}
	feats := c.featsSnapshot()
	var selects, froms, wheres, groups, orders []string
	v.ForEach(func(i int) {
		f := feats[i]
		switch f.Kind {
		case SelectKind:
			selects = append(selects, f.Text)
		case FromKind:
			froms = append(froms, f.Text)
		case WhereKind:
			wheres = append(wheres, f.Text)
		case GroupByKind:
			groups = append(groups, f.Text)
		case OrderByKind:
			orders = append(orders, f.Text)
		case AggKind:
			// aggregate features duplicate a SELECT item; skip.
		}
	})
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(selects) == 0 {
		sb.WriteString("*")
	} else {
		sb.WriteString(strings.Join(selects, ", "))
	}
	if len(froms) > 0 {
		sb.WriteString(" FROM " + strings.Join(froms, ", "))
	}
	if len(wheres) > 0 {
		sb.WriteString(" WHERE " + strings.Join(wheres, " AND "))
	}
	if len(groups) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groups, ", "))
	}
	if len(orders) > 0 {
		sb.WriteString(" ORDER BY " + strings.Join(orders, ", "))
	}
	stmt, err := sqlparser.Parse(sb.String())
	if err != nil {
		return nil, fmt.Errorf("feature: decoded SQL failed to reparse: %w", err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("feature: decoded SQL is not a single SELECT")
	}
	return sel, nil
}

// Describe renders a feature vector as a human-readable feature list, used
// by error messages and the visualizer.
func (c *Codebook) Describe(v bitvec.Vector) string {
	feats := c.featsSnapshot()
	parts := make([]string, 0, v.Count())
	v.ForEach(func(i int) { parts = append(parts, feats[i].String()) })
	return strings.Join(parts, " ")
}
