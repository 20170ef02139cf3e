package core

import (
	"fmt"
	"strings"
)

// TokenTag enumerates token kinds. Tags below tokKeywordBase are ordinary
// lexical classes; the rest are the "new set of tags … added to represent
// the different OpenMP keywords" of Section III-A. The tokeniser never emits
// keyword tags — keywords leave the tokeniser as TokIdent and are mapped to
// keyword tags by the parser via KeywordTag, preserving the paper's
// keyword-as-identifier design.
type TokenTag int

const (
	TokInvalid TokenTag = iota
	TokEOF
	TokIdent
	TokInt
	TokLParen
	TokRParen
	TokComma
	TokColon
	TokPlus
	TokMinus
	TokStar
	TokAmp
	TokAmpAmp
	TokPipe
	TokPipePipe
	TokCaret
	// TokOther is any character with no meaning in pragma grammar. It can
	// only appear inside the host-language expressions of if(...) and
	// num_threads(...), which the parser captures as raw text; anywhere
	// else it is a syntax error.
	TokOther

	tokKeywordBase
	TokParallel
	TokFor
	TokSections
	TokSection
	TokSingle
	TokMaster
	TokMasked
	TokCritical
	TokBarrier
	TokAtomic
	TokThreadPrivate
	TokFlush
	TokOrdered
	TokPrivate
	TokFirstPrivate
	TokLastPrivate
	TokShared
	TokCopyPrivate
	TokReduction
	TokSchedule
	TokNoWait
	TokDefault
	TokCollapse
	TokNumThreads
	TokIf
	TokNone
	TokStatic
	TokDynamic
	TokGuided
	TokRuntime
	TokAuto
	TokMonotonic
	TokNonmonotonic
	TokMin
	TokMax
	TokTask
	TokTaskwait
	TokTaskgroup
	TokTaskloop
	TokFinal
	TokUntied
	TokGrainsize
	TokNumTasks
	TokNoGroup
	TokCancel
	TokCancellation
	TokPoint
	TokTaskyield
	TokDepend
	TokIn
	TokOut
	TokInOut
	TokPriority
	TokMergeable
	TokTile
	TokSizes
	TokUnroll
	TokPartial
	TokFull
)

// keywordTags is the hash map of strings to keyword tokens used "to identify
// whether a string is a keyword" during parsing (Section III-A). It is
// consulted only by the parser: the tokeniser stores these words as plain
// identifiers.
var keywordTags = map[string]TokenTag{
	"parallel":      TokParallel,
	"for":           TokFor,
	"do":            TokFor, // Fortran-flavoured spelling, accepted as alias
	"sections":      TokSections,
	"section":       TokSection,
	"single":        TokSingle,
	"master":        TokMaster,
	"masked":        TokMasked,
	"critical":      TokCritical,
	"barrier":       TokBarrier,
	"atomic":        TokAtomic,
	"threadprivate": TokThreadPrivate,
	"flush":         TokFlush,
	"ordered":       TokOrdered,
	"private":       TokPrivate,
	"firstprivate":  TokFirstPrivate,
	"lastprivate":   TokLastPrivate,
	"shared":        TokShared,
	"copyprivate":   TokCopyPrivate,
	"reduction":     TokReduction,
	"schedule":      TokSchedule,
	"nowait":        TokNoWait,
	"default":       TokDefault,
	"collapse":      TokCollapse,
	"num_threads":   TokNumThreads,
	"if":            TokIf,
	"none":          TokNone,
	"static":        TokStatic,
	"dynamic":       TokDynamic,
	"guided":        TokGuided,
	"runtime":       TokRuntime,
	"auto":          TokAuto,
	"monotonic":     TokMonotonic,
	"nonmonotonic":  TokNonmonotonic,
	"min":           TokMin,
	"max":           TokMax,
	"task":          TokTask,
	"taskwait":      TokTaskwait,
	"taskgroup":     TokTaskgroup,
	"taskloop":      TokTaskloop,
	"final":         TokFinal,
	"untied":        TokUntied,
	"grainsize":     TokGrainsize,
	"num_tasks":     TokNumTasks,
	"nogroup":       TokNoGroup,
	"cancel":        TokCancel,
	"cancellation":  TokCancellation,
	"point":         TokPoint,
	"taskyield":     TokTaskyield,
	"depend":        TokDepend,
	"in":            TokIn,
	"out":           TokOut,
	"inout":         TokInOut,
	"priority":      TokPriority,
	"mergeable":     TokMergeable,
	"tile":          TokTile,
	"sizes":         TokSizes,
	"unroll":        TokUnroll,
	"partial":       TokPartial,
	"full":          TokFull,
}

// KeywordTag returns the keyword tag for an identifier spelling, or
// TokInvalid when the identifier is not an OpenMP keyword.
func KeywordTag(ident string) TokenTag {
	return keywordTags[ident]
}

// Token is one lexical unit of a pragma. Off is the byte offset of the
// token within the pragma text (after the sentinel), so diagnostics can
// point into the original comment.
type Token struct {
	Tag  TokenTag
	Text string
	Off  int
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%q", t.Text)
	}
	switch t.Tag {
	case TokEOF:
		return "end of pragma"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokColon:
		return "':'"
	}
	return fmt.Sprintf("token(%d)", t.Tag)
}

// Sentinels accepted at the start of a pragma comment. The canonical form is
// "//omp "; the others are accepted the way compilers accept both !$omp and
// c$omp in Fortran fixed form.
var sentinels = []string{"//omp ", "//$omp ", "//#pragma omp "}

// sentinelStems are the sentinels without their trailing blank: a line
// that starts with none of them is no pragma, whatever follows.
var sentinelStems = [][]byte{[]byte("//omp"), []byte("//$omp"), []byte("//#pragma omp")}

// Sentinel strips a pragma sentinel from a line comment, returning the
// directive text and true, or "", false when the comment is not a pragma.
// The returned offset is where the directive text begins within comment.
func Sentinel(comment string) (text string, off int, ok bool) {
	for _, s := range sentinels {
		if strings.HasPrefix(comment, s) {
			return comment[len(s):], len(s), true
		}
		// Also accept the sentinel with nothing after it (bare
		// directive like "//omp barrier" ends exactly at text end).
		trimmed := strings.TrimSuffix(s, " ")
		if comment == trimmed {
			return "", len(trimmed), true
		}
	}
	return "", 0, false
}

// Tokenize splits pragma text (sentinel already removed) into tokens. As in
// the paper, "the pragma consists entirely of tokens used by [the language]
// itself", so this is a conventional scanner: identifiers, integer literals
// and operator punctuation. Keywords are not distinguished here.
//
// The contents of if(...) and num_threads(...) clauses are arbitrary host
// expressions; the parser re-slices them from the raw text using token
// offsets, so the tokeniser only needs to balance parentheses.
func Tokenize(text string) ([]Token, error) {
	// Room for every token but the densest.
	return tokenize(make([]Token, 0, len(text)/3+1), text), nil
}

// tokenize appends the tokens of text to toks.
func tokenize(toks []Token, text string) []Token {
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(text[i]) {
				i++
			}
			toks = append(toks, Token{Tag: TokIdent, Text: text[start:i], Off: start})
		case c >= '0' && c <= '9':
			start := i
			for i < n && (text[i] >= '0' && text[i] <= '9') {
				i++
			}
			toks = append(toks, Token{Tag: TokInt, Text: text[start:i], Off: start})
		default:
			tag := TokInvalid
			width := 1
			switch c {
			case '(':
				tag = TokLParen
			case ')':
				tag = TokRParen
			case ',':
				tag = TokComma
			case ':':
				tag = TokColon
			case '+':
				tag = TokPlus
			case '-':
				tag = TokMinus
			case '*':
				tag = TokStar
			case '^':
				tag = TokCaret
			case '&':
				tag = TokAmp
				if i+1 < n && text[i+1] == '&' {
					tag, width = TokAmpAmp, 2
				}
			case '|':
				tag = TokPipe
				if i+1 < n && text[i+1] == '|' {
					tag, width = TokPipePipe, 2
				}
			default:
				tag = TokOther
			}
			toks = append(toks, Token{Tag: tag, Text: text[i : i+width], Off: i})
			i += width
		}
	}
	return append(toks, Token{Tag: TokEOF, Off: n})
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
