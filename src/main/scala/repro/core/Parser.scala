package repro.core

import Ast._

/** Recursive-descent parser for the practical TRPQ syntax of Section IV.
  *
  * Supported forms (everything the paper's Q1–Q12 and examples use):
  *   - `MATCH (x:Person {risk = 'low' AND time < '10'}) ON g`
  *   - edge patterns `-[z:meets]->`, `<-[:meets]-`, `-[:meets]-`
  *   - path segments `-/PREV/FWD/:visits/FWD/-`, `-/(A + B)/NEXT[0,12]/-`
  *   - postfix `*`, `[n,m]`, `[n,_]` on any path atom or parenthesized path
  *   - conditions with `AND`, `OR`, `NOT`, `prop = 'v'`, `time = 'k'`,
  *     `time < 'k'`
  *
  * A `{ … }` condition parses straight to a NavL test (grammar (3)):
  * `p = 'v'` ⇒ `p↦v`, `time = 'k'` ⇒ `(<k+1 ∧ ¬<k)`, `time < 'k'` ⇒ `<k`,
  * `AND`/`OR`/`NOT` ⇒ `∧`/`∨`/`¬`. The produced [[Ast.Path]] is otherwise
  * *practical* syntax: existence tests are added when the query is
  * translated to NavL[PC,NOI].
  */
object Parser {

  // ---- tokens -------------------------------------------------------------

  private sealed trait Tok
  private case class TIdent(s: String) extends Tok
  private case class TStr(s: String) extends Tok
  private case class TNum(n: Int) extends Tok
  private case object TLParen extends Tok
  private case object TRParen extends Tok
  private case object TLBrace extends Tok
  private case object TRBrace extends Tok
  private case object TLBrack extends Tok
  private case object TRBrack extends Tok
  private case object TColon extends Tok
  private case object TComma extends Tok
  private case object TSlash extends Tok
  private case object TPlus extends Tok
  private case object TStar extends Tok
  private case object TDash extends Tok
  private case object TArrow extends Tok // ->
  private case object TLArrow extends Tok // <-
  private case object TEq extends Tok
  private case object TLt extends Tok
  private case object TUnderscore extends Tok
  private case object TEnd extends Tok

  private def tokenize(s: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    var i = 0
    def err(msg: String) = throw new IllegalArgumentException(s"parse error at $i: $msg in: $s")
    while (i < s.length) {
      val c = s(i)
      if (c.isWhitespace) i += 1
      else if (c.isLetter) {
        val j0 = i
        while (i < s.length && (s(i).isLetterOrDigit || s(i) == '_')) i += 1
        out += TIdent(s.substring(j0, i))
      } else if (c.isDigit) {
        val j0 = i
        while (i < s.length && s(i).isDigit) i += 1
        out += TNum(s.substring(j0, i).toInt)
      } else if (c == '\'') {
        val j0 = i + 1
        i += 1
        while (i < s.length && s(i) != '\'') i += 1
        if (i >= s.length) err("unterminated string")
        out += TStr(s.substring(j0, i)); i += 1
      } else if (c == '-' && i + 1 < s.length && s(i + 1) == '>') { out += TArrow; i += 2 }
      else if (c == '<' && i + 1 < s.length && s(i + 1) == '-') { out += TLArrow; i += 2 }
      else {
        out += (c match {
          case '(' => TLParen; case ')' => TRParen
          case '{' => TLBrace; case '}' => TRBrace
          case '[' => TLBrack; case ']' => TRBrack
          case ':' => TColon; case ',' => TComma
          case '/' => TSlash; case '+' => TPlus
          case '*' => TStar; case '-' => TDash
          case '=' => TEq; case '<' => TLt
          case '_' => TUnderscore
          case other => err(s"unexpected character '$other'")
        })
        i += 1
      }
    }
    (out += TEnd).result()
  }

  // ---- parser state -------------------------------------------------------

  private final class P(toks: Vector[Tok], src: String) {
    var pos = 0
    def peek: Tok = toks(pos)
    def peek2: Tok = if (pos + 1 < toks.length) toks(pos + 1) else TEnd
    def next(): Tok = { val t = toks(pos); pos += 1; t }
    def expect(t: Tok): Unit =
      if (peek == t) { pos += 1 }
      else fail(s"expected $t but found $peek")
    def fail(msg: String): Nothing =
      throw new IllegalArgumentException(s"parse error near token #$pos ($msg) in: $src")
    def ident(): String = next() match {
      case TIdent(s) => s
      case other     => fail(s"expected identifier, found $other")
    }
    def kw(word: String): Boolean = peek match {
      case TIdent(s) if s.equalsIgnoreCase(word) => pos += 1; true
      case _                                     => false
    }
  }

  private def isKw(t: Tok, w: String): Boolean = t match {
    case TIdent(s) => s.equalsIgnoreCase(w)
    case _         => false
  }

  // ---- public API ---------------------------------------------------------

  /** Parse a full MATCH clause. */
  def parseMatch(s: String): MatchQuery = {
    val p = new P(tokenize(s), s)
    if (!p.kw("MATCH")) p.fail("expected MATCH")
    val elems = Vector.newBuilder[Element]
    val segs = Vector.newBuilder[Segment]
    elems += element(p)
    while (p.peek == TDash || p.peek == TLArrow) {
      segs += segment(p)
      elems += element(p)
    }
    if (!p.kw("ON")) p.fail("expected ON")
    val g = p.ident()
    p.expect(TEnd)
    MatchQuery(elems.result(), segs.result(), g)
  }

  /** Parse a bare practical path expression (e.g. `PREV/FWD/:visits/FWD`). */
  def parsePath(s: String): Path = {
    val p = new P(tokenize(s), s)
    val r = pathUnion(p)
    p.expect(TEnd)
    r
  }

  /** Parse a bare condition expression (e.g. `risk = 'low' AND time < '10'`). */
  def parseCond(s: String): Test = {
    val p = new P(tokenize(s), s)
    val c = condOr(p)
    p.expect(TEnd)
    c
  }

  // ---- elements & segments ------------------------------------------------

  private def element(p: P): Element = {
    p.expect(TLParen)
    val varName = p.peek match {
      case TIdent(s) if !isKw(p.peek, "time") => p.pos += 1; Some(s)
      case _                                  => None
    }
    val label = if (p.peek == TColon) { p.pos += 1; Some(p.ident()) } else None
    val cond = if (p.peek == TLBrace) {
      p.pos += 1; val c = condOr(p); p.expect(TRBrace); Some(c)
    } else None
    p.expect(TRParen)
    Element(varName, label, cond)
  }

  private def segment(p: P): Segment = p.peek match {
    case TLArrow => // <-[..]-
      p.pos += 1
      val (v, l) = edgeBody(p)
      p.expect(TDash)
      EdgeSeg(v, l, In)
    case TDash =>
      p.pos += 1
      p.peek match {
        case TSlash => // -/ path /-
          p.pos += 1
          val path = pathUnion(p)
          p.expect(TSlash); p.expect(TDash)
          PathSeg(path)
        case TLBrack =>
          val (v, l) = edgeBody(p)
          p.peek match {
            case TArrow => p.pos += 1; EdgeSeg(v, l, Out)
            case TDash  => p.pos += 1; EdgeSeg(v, l, Undir)
            case other  => p.fail(s"expected -> or - after edge pattern, found $other")
          }
        case other => p.fail(s"expected / or [ after -, found $other")
      }
    case other => p.fail(s"expected segment, found $other")
  }

  private def edgeBody(p: P): (Option[String], Option[String]) = {
    p.expect(TLBrack)
    val v = p.peek match {
      case TIdent(s) => p.pos += 1; Some(s)
      case _         => None
    }
    val l = if (p.peek == TColon) { p.pos += 1; Some(p.ident()) } else None
    p.expect(TRBrack)
    (v, l)
  }

  // ---- path expressions ---------------------------------------------------

  private def pathUnion(p: P): Path = {
    var acc = pathConcat(p)
    while (p.peek == TPlus) { p.pos += 1; acc = Union(acc, pathConcat(p)) }
    acc
  }

  // A `/` followed by `-` terminates the enclosing `-/ … /-` segment.
  private def pathConcat(p: P): Path = {
    var acc = pathPostfix(p)
    while (p.peek == TSlash && p.peek2 != TDash) {
      p.pos += 1
      acc = Concat(acc, pathPostfix(p))
    }
    acc
  }

  private def pathPostfix(p: P): Path = {
    var acc = pathAtom(p)
    var done = false
    while (!done) p.peek match {
      case TStar => p.pos += 1; acc = Repeat(acc, 0, None)
      case TLBrack =>
        p.pos += 1
        val n = p.next() match {
          case TNum(k) => k
          case other   => p.fail(s"expected number in occurrence indicator, found $other")
        }
        p.expect(TComma)
        val m = p.next() match {
          case TNum(k)     => Some(k)
          case TUnderscore => None
          case other       => p.fail(s"expected number or _ in occurrence indicator, found $other")
        }
        p.expect(TRBrack)
        acc = Repeat(acc, n, m)
      case _ => done = true
    }
    acc
  }

  private def pathAtom(p: P): Path = p.peek match {
    case t if isKw(t, "FWD")  => p.pos += 1; F
    case t if isKw(t, "BWD")  => p.pos += 1; B
    case t if isKw(t, "NEXT") => p.pos += 1; Nx
    case t if isKw(t, "PREV") => p.pos += 1; Pv
    case TColon               => p.pos += 1; Tst(HasLabel(p.ident()))
    case TLBrace =>
      p.pos += 1; val c = condOr(p); p.expect(TRBrace); Tst(c)
    case TLParen =>
      p.pos += 1; val r = pathUnion(p); p.expect(TRParen); r
    case other => p.fail(s"expected path atom, found $other")
  }

  // ---- conditions ---------------------------------------------------------

  private def condOr(p: P): Test = {
    var acc = condAnd(p)
    while (isKw(p.peek, "OR")) { p.pos += 1; acc = Or(acc, condAnd(p)) }
    acc
  }

  private def condAnd(p: P): Test = {
    var acc = condNot(p)
    while (isKw(p.peek, "AND")) { p.pos += 1; acc = And(acc, condNot(p)) }
    acc
  }

  private def condNot(p: P): Test =
    if (isKw(p.peek, "NOT")) { p.pos += 1; Not(condNot(p)) }
    else if (p.peek == TLParen) { p.pos += 1; val c = condOr(p); p.expect(TRParen); c }
    else condPrim(p)

  private def condPrim(p: P): Test = {
    val name = p.ident()
    if (name.equalsIgnoreCase("time")) {
      val op = p.next()
      val v = condValue(p)
      val k = v.toIntOption.getOrElse(p.fail(s"time compared to non-number '$v'"))
      op match {
        case TEq => And(Lt(k + 1), Not(Lt(k)))
        case TLt => Lt(k)
        case o   => p.fail(s"expected = or < after time, found $o")
      }
    } else {
      p.expect(TEq)
      PropIs(name, condValue(p))
    }
  }

  private def condValue(p: P): String = p.next() match {
    case TStr(s) => s
    case TNum(n) => n.toString
    case other   => p.fail(s"expected value, found $other")
  }
}
