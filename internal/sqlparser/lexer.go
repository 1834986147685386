// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL SELECT dialect that appears in database access logs.
//
// The paper's pipeline (Section 7) parses raw log entries with a standard
// SQL parser before regularizing them into conjunctive form. This package is
// that substrate: it covers SELECT lists (expressions, aliases, *),
// FROM clauses (tables, aliased subqueries, comma and JOIN ... ON forms),
// WHERE/HAVING boolean expressions (AND/OR/NOT, comparisons, IN, BETWEEN,
// LIKE, IS NULL, EXISTS), GROUP BY, ORDER BY, LIMIT/OFFSET, and UNION [ALL].
// Statements that fall outside the dialect (DDL, DML, stored-procedure
// calls) are reported as *UnsupportedError so callers can count them the way
// Table 1 of the paper counts unparseable entries.
package sqlparser

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokParam // '?' or ':name' or '$1' style bind parameters
	TokOp    // operators and punctuation
)

// Token is a single lexical token with its position in the input.
type Token struct {
	Kind TokenKind
	Text string // raw text; keywords are upper-cased
	Pos  int    // byte offset in the input
}

// SyntaxError reports a lexical or grammatical error with position context.
type SyntaxError struct {
	Pos     int
	Msg     string
	Context string
}

func (e *SyntaxError) Error() string {
	if e.Context != "" {
		return fmt.Sprintf("sql syntax error at byte %d: %s (near %q)", e.Pos, e.Msg, e.Context)
	}
	return fmt.Sprintf("sql syntax error at byte %d: %s", e.Pos, e.Msg)
}

// UnsupportedError reports a statement that is valid SQL but outside the
// SELECT dialect this parser handles (e.g. INSERT, CALL, CREATE).
type UnsupportedError struct {
	Verb string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("unsupported statement kind %q (only SELECT is parsed)", e.Verb)
}

// keywordList is every reserved word, in upper case.
var keywordList = [...]string{
	"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "IN", "IS", "NULL",
	"LIKE", "BETWEEN", "EXISTS", "UNION", "ALL", "DISTINCT", "GROUP", "BY",
	"ORDER", "HAVING", "LIMIT", "OFFSET", "ASC", "DESC", "JOIN", "INNER",
	"LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON", "CASE", "WHEN", "THEN",
	"ELSE", "END", "TRUE", "FALSE", "CAST", "INSERT", "UPDATE", "DELETE",
	"CREATE", "DROP", "ALTER", "CALL", "EXEC", "EXECUTE", "BEGIN", "COMMIT",
	"ROLLBACK", "SET", "VALUES", "INTO", "WITH",
}

// The shortest and longest keywords' lengths in bytes.
const minKeywordLen, maxKeywordLen = 2, 8

// keywordTable holds each keyword at its keywordSlot; no two keywords share
// a slot, so a word is a keyword only if it equals the one at its slot.
var keywordTable = func() (t [128]string) {
	for _, kw := range keywordList {
		s := keywordSlot(kw)
		if t[s] != "" {
			panic("sqlparser: keywords " + t[s] + " and " + kw + " share a slot")
		}
		t[s] = kw
	}
	return t
}()

// keywordSlot hashes a word of at least minKeywordLen bytes by its length
// and its first, second and last bytes, upper-cased if they are ASCII
// letters (c &^ 0x20 maps any other byte somewhere, and the compare that
// follows a lookup rejects it). The multiplier was searched for: it is one
// that leaves no two keywords on one slot.
func keywordSlot(text string) int {
	n := len(text)
	k := uint32(text[0]&^0x20) | uint32(text[1]&^0x20)<<8 | uint32(text[n-1]&^0x20)<<16 | uint32(n)<<24
	return int(k * 0x97ddf89f >> 25)
}

// asciiKeyword reports whether text is, once its ASCII letters are
// upper-cased, a reserved word, and returns the word.
func asciiKeyword(text string) (string, bool) {
	n := len(text)
	if n < minKeywordLen || n > maxKeywordLen {
		return "", false
	}
	kw := keywordTable[keywordSlot(text)]
	if len(kw) != n {
		return "", false
	}
	for i := 0; i < n; i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return "", false
		}
	}
	return kw, true
}

// keyword reports whether text is a reserved word in any letter case and
// returns its canonical upper-case spelling. Text with runes outside ASCII
// takes strings.ToUpper, whose Unicode case mapping can turn a non-ASCII
// letter into an ASCII one ('ſ' → 'S').
func keyword(text string) (string, bool) {
	if kw, ok := asciiKeyword(text); ok {
		return kw, true
	}
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return asciiKeyword(strings.ToUpper(text))
		}
	}
	return "", false
}

type lexer struct {
	src string
	pos int
}

func (lx *lexer) errf(pos int, format string, args ...any) *SyntaxError {
	end := pos + 20
	if end > len(lx.src) {
		end = len(lx.src)
	}
	start := pos
	if start > len(lx.src) {
		start = len(lx.src)
	}
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Context: lx.src[start:end]}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r|0x20 && r|0x20 <= 'z' || r == '_'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '#'
}

// next scans the next token.
func (lx *lexer) next() (Token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			// line comment
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			start := lx.pos
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				lx.pos++
			}
			if lx.pos+1 >= len(lx.src) {
				return Token{}, lx.errf(start, "unterminated block comment")
			}
			lx.pos += 2
		default:
			goto scan
		}
	}
	return Token{Kind: TokEOF, Pos: lx.pos}, nil

scan:
	start := lx.pos
	// Decode a full rune: treating bytes as runes would accept invalid
	// UTF-8 as identifier letters (rune(0xda) is 'Ú') and split multi-byte
	// letters in half, producing names the printer cannot round-trip.
	c := rune(lx.src[lx.pos])
	if c >= utf8.RuneSelf {
		var size int
		if c, size = utf8.DecodeRuneInString(lx.src[lx.pos:]); c == utf8.RuneError && size <= 1 {
			return Token{}, lx.errf(start, "invalid UTF-8 byte 0x%02x", lx.src[lx.pos])
		}
	}

	switch {
	case isIdentStart(c):
		return lx.scanIdent(start)
	case c >= '0' && c <= '9':
		return lx.scanNumber(start)
	case c == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9':
		return lx.scanNumber(start)
	case c == '\'':
		return lx.scanString(start)
	case c == '"' || c == '`' || c == '[':
		return lx.scanQuotedIdent(start)
	case c == '?':
		lx.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil
	case c == ':' || c == '$' || c == '@':
		// named or positional bind parameter (:name, $1, @var)
		lx.pos++
		if err := lx.scanIdentPart(); err != nil {
			return Token{}, err
		}
		if lx.pos == start+1 {
			return Token{}, lx.errf(start, "dangling %q", string(c))
		}
		return Token{Kind: TokParam, Text: lx.src[start:lx.pos], Pos: start}, nil
	default:
		return lx.scanOp(start)
	}
}

// asciiIdentPart is isIdentPart on the ASCII range.
var asciiIdentPart = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isIdentPart(rune(c))
	}
	return t
}()

// scanIdentPart consumes identifier-part runes, stopping at the first rune
// outside the identifier alphabet and rejecting invalid UTF-8.
func (lx *lexer) scanIdentPart() error {
	for lx.pos < len(lx.src) {
		if c := lx.src[lx.pos]; c < utf8.RuneSelf {
			if !asciiIdentPart[c] {
				return nil
			}
			lx.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if r == utf8.RuneError && size <= 1 {
			return lx.errf(lx.pos, "invalid UTF-8 byte 0x%02x", lx.src[lx.pos])
		}
		if !isIdentPart(r) {
			return nil
		}
		lx.pos += size
	}
	return nil
}

func (lx *lexer) scanIdent(start int) (Token, error) {
	if err := lx.scanIdentPart(); err != nil {
		return Token{}, err
	}
	text := lx.src[start:lx.pos]
	if kw, ok := keyword(text); ok {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

func (lx *lexer) scanNumber(start int) (Token, error) {
	seenDot := false
	seenExp := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		default:
			return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
}

func (lx *lexer) scanString(start int) (Token, error) {
	lx.pos++ // opening quote
	for lx.pos < len(lx.src) {
		if lx.src[lx.pos] == '\'' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				lx.pos += 2 // escaped quote
				continue
			}
			lx.pos++
			return Token{Kind: TokString, Text: lx.src[start:lx.pos], Pos: start}, nil
		}
		lx.pos++
	}
	return Token{}, lx.errf(start, "unterminated string literal")
}

func (lx *lexer) scanQuotedIdent(start int) (Token, error) {
	open := lx.src[lx.pos]
	closeCh := open
	if open == '[' {
		closeCh = ']'
	}
	lx.pos++
	// the name is a slice of the source unless a doubled closing character
	// (SQL's "" rule, which lets the printer round-trip any name) forces a
	// copy
	var text []byte
	from := lx.pos
	for lx.pos < len(lx.src) {
		if lx.src[lx.pos] == closeCh {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == closeCh {
				text = append(text, lx.src[from:lx.pos+1]...)
				lx.pos += 2
				from = lx.pos
				continue
			}
			name := lx.src[from:lx.pos]
			if text != nil {
				name = string(append(text, name...))
			}
			lx.pos++
			return Token{Kind: TokIdent, Text: name, Pos: start}, nil
		}
		lx.pos++
	}
	return Token{}, lx.errf(start, "unterminated quoted identifier")
}

func (lx *lexer) scanOp(start int) (Token, error) {
	if lx.pos+1 < len(lx.src) {
		// the two-character operators: <= >= <> != ||
		c, d := lx.src[lx.pos], lx.src[lx.pos+1]
		if d == '=' && (c == '<' || c == '>' || c == '!') || c == '<' && d == '>' || c == '|' && d == '|' {
			lx.pos += 2
			return Token{Kind: TokOp, Text: lx.src[start:lx.pos], Pos: start}, nil
		}
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', '%', '.', ';':
		lx.pos++
		return Token{Kind: TokOp, Text: lx.src[start:lx.pos], Pos: start}, nil
	}
	return Token{}, lx.errf(start, "unexpected character %q", string(rune(c)))
}

// Lex tokenizes src completely. Exposed for tests and tooling.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src}
	var out []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// Fingerprint appends the literal-blind fingerprint of src to dst: one kind
// byte per token, followed by the token's length-prefixed text, except that
// number and string literals are the kind byte alone unless keepLiterals is
// set. Two statements with equal fingerprints therefore lex to token
// sequences that are equal apart from literal text — and since the parser
// branches on a literal's kind but never on its text, they parse to trees
// that differ only in literal values. The scan is the lexer's, so it fails
// exactly when Lex does; it allocates nothing beyond growing dst.
func Fingerprint(dst []byte, src string, keepLiterals bool) ([]byte, error) {
	lx := lexer{src: src}
	for {
		t, err := lx.next()
		if err != nil {
			return dst, err
		}
		if t.Kind == TokEOF {
			return dst, nil
		}
		dst = append(dst, byte(t.Kind))
		if !keepLiterals && (t.Kind == TokNumber || t.Kind == TokString) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Text)))
		dst = append(dst, t.Text...)
	}
}
