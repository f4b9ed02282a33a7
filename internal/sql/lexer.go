// Package sql implements the SQL front end of the engine: a lexer,
// recursive-descent parser and AST for the SQL-99 subset exercised by
// the TPC-DS query workload (§4.1) — multi-way joins, rich predicates
// (BETWEEN, IN with lists and subqueries, LIKE, CASE), aggregation with
// HAVING, ORDER BY / LIMIT, UNION ALL, WITH common table expressions,
// and windowed aggregates (`SUM(...) OVER (PARTITION BY ...)`, used by
// reporting queries like Query 20 of Figure 7).
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer output.
type TokenKind int

const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or unreserved keyword.
	TokIdent
	// TokKeyword is a reserved word (normalized upper case).
	TokKeyword
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal (unescaped).
	TokString
	// TokOp is an operator or punctuation token.
	TokOp
)

// Token is one lexical unit with its source position (for errors).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "NULL": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "JOIN": true, "ON": true, "INNER": true,
	"LEFT": true, "OUTER": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"ASC": true, "DESC": true, "OVER": true, "PARTITION": true, "WITH": true,
	"DATE": true, "INTERVAL": true, "EXISTS": true, "CAST": true,
	"ROLLUP": true, "CUBE": true, "OFFSET": true,
}

// Lex tokenizes the input. It returns an error for unterminated strings
// or illegal characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			for i < n && (isDigit(input[i]) || input[i] == '.') {
				i++
			}
			toks = append(toks, Token{TokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &Error{Offset: start, Msg: "unterminated string"}
			}
			toks = append(toks, Token{TokString, sb.String(), start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{TokKeyword, up, start})
			} else {
				toks = append(toks, Token{TokIdent, strings.ToLower(word), start})
			}
		default:
			start := i
			var op string
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<>", "<=", ">=", "!=", "||":
				op = two
				i += 2
			default:
				switch c {
				case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
					op = string(c)
					i++
				default:
					return nil, &Error{Offset: i, Msg: fmt.Sprintf("illegal character %q", c)}
				}
			}
			toks = append(toks, Token{TokOp, op, start})
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
