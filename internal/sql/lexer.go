// Package sql implements the SQL dialect the paper's algorithms are written
// in (Appendix A): CREATE TABLE AS SELECT with DISTRIBUTED BY, multi-table
// joins, LEFT OUTER JOIN, GROUP BY with min aggregation, DISTINCT, UNION
// ALL, the scalar functions least and coalesce, user-defined functions such
// as axplusb, plus the DDL the driver scripts use (DROP TABLE, ALTER TABLE
// RENAME, INSERT ... VALUES). Statements are parsed to an AST, planned onto
// engine operator trees and executed through a Session, which mirrors the
// paper's Python driver: it returns the row count of every executed query.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokSymbol // punctuation and operators
	tokParam  // $N prepared-statement parameter; text is the digits
)

// token is one lexical element. Keywords are tokIdent; the parser matches
// them case-insensitively.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer scans SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises src, returning an error for unrecognised characters.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos], start)
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case c == '$':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			if l.pos == start+1 {
				return nil, &ParseError{fmt.Sprintf("sql: expected parameter number after $ at offset %d", start)}
			}
			l.emit(tokParam, l.src[start+1:l.pos], start)
		default:
			start := l.pos
			// Two-character operators first.
			if l.pos+1 < len(l.src) {
				two := l.src[l.pos : l.pos+2]
				if two == "!=" || two == "<>" || two == "<=" || two == ">=" {
					l.pos += 2
					l.emit(tokSymbol, two, start)
					continue
				}
			}
			switch c {
			case '(', ')', ',', ';', '.', '*', '=', '<', '>', '+', '-':
				l.pos++
				l.emit(tokSymbol, string(c), start)
			default:
				return nil, &ParseError{fmt.Sprintf("sql: unexpected character %q at offset %d", c, l.pos)}
			}
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isKeyword reports whether the token matches the keyword (ASCII
// case-insensitive), as SQL keywords are not reserved in this dialect.
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
